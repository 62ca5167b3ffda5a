"""Frobenius roots: the smallest ideal whose bracket power contains the input.

For a polynomial g and level e, write each exponent vector as
``beta = q**e * floor + rem`` with every entry of ``rem`` below q**e.  The
terms sharing the same ``rem`` assemble into one component polynomial in
the floors, and those components generate the level-e root.  Coefficients
ride along unchanged because c**q == c in F_p.  The root is the left
adjoint of the bracket power: root(I, e) <= J exactly when I <= J^[q**e].

Terms are stored under their order keys (see :mod:`fsing.polyring`), and
the key is linear in the exponents, so a term of key k whose remainder
has key r has the floor of key ``(k - r) // q**e``.  A generator of at
least ``_COLUMNAR_TERMS`` terms is split by columns: its keys are decoded
in one pass into one exponent column per variable, one pass per variable
takes every remainder and one every floor, and the floors' keys are
weighted sums of their columns.  Before it computes any floor, it looks
for a constant component: a term's floor is zero exactly when each of its
exponents is below q**e, and its component is that constant when no other
term shares its remainder; then the root is the unit ideal.  Shorter
generators are split term by term, which costs less below that size.
When all remainders differ, every component is a single term and the
root is the unit ideal exactly when some floor is zero; otherwise the
terms are grouped by remainder and a constant component is looked for
before any component is built.  Both splits give the same components in
the same order.  A single term is
split on its own, and its floor keeps its exponents as its leading
monomial.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .errors import check_int, check_member
from .groebner import Ideal
from .polyring import FROBENIUS_LEVEL_CAP, Exponents, Poly, Ring

# Term count from which a generator is split by columns.  The term by term
# split decodes and encodes every term, and the columnar one pays a fixed
# cost per generator; on two and three variables (CPython 3.11) they cross
# between 8 and 16 terms, and the fthreshold deck timed the same at both.
_COLUMNAR_TERMS = 8


def _root_gens(ring: Ring, gens: Iterable[Poly], e: int) -> tuple[Poly, ...]:
    # For each nonzero generator, one component polynomial per remainder
    # pattern, sorted by pattern.  A single term has one component, its
    # floor, which is also that component's leading monomial; so is each
    # one-term component of a long generator.  A component that is a
    # nonzero constant makes the root the unit ideal, so the scan returns
    # the constant 1 alone as soon as it finds one.  No exponent exceeds
    # MAX_TOTAL_DEGREE < q**FROBENIUS_LEVEL_CAP, so capping the level
    # changes no floor or remainder, and a huge q**e is never formed.
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
            cols = codec.columns(terms)
            rems = list(zip(*[[b % Q for b in col] for col in cols]))
            # decided before any floor key: a term whose exponents are all
            # below Q has floor 0, and its component is that constant
            # unless another term shares its remainder
            tops = map(max, *cols) if len(cols) > 1 else cols[0]
            consts = [rem for rem, top in zip(rems, tops) if top < Q]
            if consts and (
                len(set(rems)) == len(rems) or 1 in map(Counter(rems).__getitem__, consts)
            ):
                return (ring.one,)
            floors = codec.keys_of([[b // Q for b in col] for col in cols])
        if len(set(rems)) == len(rems):
            # every component is a single term
            if 0 in floors:
                return (ring.one,)
            out += [
                Poly(ring, {floor: c}, floor)
                for _, floor, c in sorted(zip(rems, floors, terms.values()))
            ]
            continue
        components: dict[Exponents, dict[int, int]] = {}
        get = components.get
        for rem, floor, c in zip(rems, floors, terms.values()):
            part = get(rem)
            if part is None:
                components[rem] = {floor: c}
            else:
                part[floor] = c
        if any(len(part) == 1 and 0 in part for part in components.values()):
            return (ring.one,)
        for rem in sorted(components):
            part = components[rem]
            lm = next(iter(part)) if len(part) == 1 else None
            out.append(Poly(ring, part, lm))
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
