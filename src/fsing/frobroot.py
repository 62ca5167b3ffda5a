"""Frobenius roots: the smallest ideal whose bracket power contains the input.

For a polynomial g and level e, write each exponent vector as
``beta = q**e * floor + rem`` with every entry of ``rem`` below q**e.  The
terms sharing the same ``rem`` assemble into one component polynomial in
the floors, and those components generate the level-e root.  Coefficients
ride along unchanged because c**q == c in F_p.  The root is the left
adjoint of the bracket power: root(I, e) <= J exactly when I <= J^[q**e].

Terms are stored under their order keys (see :mod:`fsing.polyring`).  At
p = 2, q**e is 2**t and the split runs on words, the exponents packed one
per field: a term's remainder is the low t bits of each field, and its
floor is the word shifted down by t, masked to drop the bits pulled in
from the next field.  No term is decoded.  Every exponent is below 2**20
(the degree guard), so from t = 20 on every floor is 0, each nonzero
generator gives the unit ideal, and no mask is built.

At odd p, a term of key k whose remainder has key r has the floor of key
``(k - r) // q**e``.  A generator of at least ``_COLUMNAR_TERMS`` terms is
split by columns: its keys are decoded in one pass into one exponent
column per variable, one pass per variable takes every remainder and one
every floor, and the floors' keys are weighted sums of their columns.
Shorter generators are split term by term, which costs less below that
size.  A single term is split on its own, and its floor keeps its
exponents as its leading monomial.

A term's floor is 0 exactly when its exponents are all below q**e, and
when no other term shares its remainder its component is a nonzero
constant, so the root is the unit ideal.  Such a term is its own
remainder, and any other term of that remainder adds q**e times a nonzero
exponent vector, so its degree is at least q**e more.  So a term of floor
0 whose degree exceeds deg(g) - q**e is such a constant.  At p = 2 and in
the columnar split this degree bound is tried first, on words: the
columnar split finds the terms of floor 0 with one guard-bit test per
word (``Codec._below``) and decodes nothing when the bound decides.  When
it does not, the components decide: one that is a nonzero constant makes
the root the unit ideal.  Every split gives the same components, in the
order of their remainders' exponent tuples.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .errors import check_int, check_member
from .groebner import Ideal
from .polyring import FROBENIUS_LEVEL_CAP, Poly, Ring

# Term count from which a generator is split by columns at odd p.  The term
# by term split decodes and encodes every term, and the columnar one pays a
# fixed cost per generator; on two and three variables (CPython 3.11) they
# cross between 8 and 16 terms, and the fthreshold deck timed the same at both.
_COLUMNAR_TERMS = 8


def _components(
    ring: Ring, rems: list[Hashable], floors: list[int], coeffs: Iterable[int]
) -> list[Poly] | None:
    # The components of one generator from each term's remainder (anything
    # that ranks as the patterns rank), floor key and coefficient, sorted
    # by pattern; None when one of them is a nonzero constant.  A one-term
    # component's floor is its leading monomial.
    if len(set(rems)) == len(rems):
        # every component is a single term
        if 0 in floors:
            return None
        return [
            Poly(ring, {floor: c}, floor)
            for _, floor, c in sorted(zip(rems, floors, coeffs))
        ]
    components: dict[Hashable, dict[int, int]] = {}
    get = components.get
    for rem, floor, c in zip(rems, floors, coeffs):
        part = get(rem)
        if part is None:
            components[rem] = {floor: c}
        else:
            part[floor] = c
    if any(len(part) == 1 and 0 in part for part in components.values()):
        return None
    out = []
    for rem in sorted(components):
        part = components[rem]
        lm = next(iter(part)) if len(part) == 1 else None
        out.append(Poly(ring, part, lm))
    return out


def _unit_by_degree(ring: Ring, g: Poly, low: list[int], Q: int) -> bool:
    # whether a term of floor 0, of word in low, has a degree above
    # deg(g) - Q: then no other term shares its remainder (see the module
    # docstring), and its component is that constant
    if not low:
        return False
    codec = ring._codec
    bound = g.total_degree() - Q
    # a term of floor 0 has degree at most n * (Q - 1), so past that no
    # degree needs reading
    if bound >= codec.n * (Q - 1):
        return False
    return bound < 0 or max(map(codec.word_degree, low)) > bound


def _root_gens_2(ring: Ring, gens: Iterable[Poly], t: int) -> tuple[Poly, ...]:
    # The split at q**e = 2**t on words.  Every exponent is at most
    # MAX_TOTAL_DEGREE < 2**FROBENIUS_LEVEL_CAP, so from there on every
    # floor is 0.
    if t >= FROBENIUS_LEVEL_CAP:
        return (ring.one,) if any(gens) else ()
    codec = ring._codec
    word, key = codec.word, codec.key
    F = codec._split_masks(t)
    out: list[Poly] = []
    for g in gens:
        terms = g._terms
        if len(terms) == 1:
            for k, c in terms.items():
                floor = (word(k) >> t) & F
                if not floor:
                    return (ring.one,)
                k = key(floor)
                out.append(Poly(ring, {k: c}, k))
            continue
        words = codec._words(terms)
        floors = [(w >> t) & F for w in words]
        if 0 in floors:
            # decided before any floor key (see the module docstring)
            low = [w for w, f in zip(words, floors) if not f]
            if _unit_by_degree(ring, g, low, 1 << t):
                return (ring.one,)
        parts = _components(ring, codec._ranks(words, t), codec._keys(floors), terms.values())
        if parts is None:
            return (ring.one,)
        out += parts
    return tuple(out)


def _root_gens(ring: Ring, gens: Iterable[Poly], e: int) -> tuple[Poly, ...]:
    # For each nonzero generator, one component polynomial per remainder
    # pattern, sorted by pattern.  A component that is a nonzero constant
    # makes the root the unit ideal, so the scan returns the constant 1
    # alone as soon as it finds one.  No exponent exceeds
    # MAX_TOTAL_DEGREE < q**FROBENIUS_LEVEL_CAP, so capping the level
    # changes no floor or remainder, and a huge q**e is never formed.
    if ring.p == 2:
        return _root_gens_2(ring, gens, ring.s * min(e, FROBENIUS_LEVEL_CAP))
    Q = ring.q ** min(e, FROBENIUS_LEVEL_CAP)
    codec = ring._codec
    decode, encode = codec.decode, codec.encode
    out: list[Poly] = []
    for g in gens:
        terms = g._terms
        if len(terms) == 1:
            for c in terms.values():
                exps = g._lead_exps
                if exps is None:
                    exps = g.leading_monomial()
                floor = tuple([b // Q for b in exps])
                if not any(floor):
                    return (ring.one,)
                k = encode(floor)
                out.append(Poly(ring, {k: c}, k, floor))
            continue
        if len(terms) < _COLUMNAR_TERMS:
            rems = [tuple([b % Q for b in decode(k)]) for k in terms]
            floors = [(k - encode(rem)) // Q for k, rem in zip(terms, rems)]
        else:
            # decided before any term is decoded (see the module docstring)
            words = codec._words(terms)
            low = codec._below(words, Q)
            if _unit_by_degree(ring, g, low, Q):
                return (ring.one,)
            cols = codec.columns(words)
            rems = list(zip(*[[b % Q for b in col] for col in cols]))
            floors = codec.keys_of([[b // Q for b in col] for col in cols])
        parts = _components(ring, rems, floors, terms.values())
        if parts is None:
            return (ring.one,)
        out += parts
    return tuple(out)


def poly_root(g: Poly, e: int) -> Ideal:
    """Level-e Frobenius root of the principal ideal (g).

    The level must be >= 1; the zero polynomial yields the zero ideal.
    Only exponent patterns present in g are visited, so the cost is linear
    in the number of terms, never in q**e.
    """
    check_member(g, Poly, "the polynomial")
    check_int(e, "the root level", 1)
    return Ideal._of_checked(g.ring, _root_gens(g.ring, (g,), e))


def ideal_root(ideal: Ideal, e: int) -> Ideal:
    """Level-e Frobenius root of an ideal (generator-wise, then combined)."""
    check_member(ideal, Ideal, "the ideal")
    check_int(e, "the root level", 1)
    return Ideal._of_checked(ideal.ring, _root_gens(ideal.ring, ideal.gens, e))
