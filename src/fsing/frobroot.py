"""Frobenius roots: the smallest ideal whose bracket power contains the input.

For a polynomial g and level e, write each exponent vector as
``beta = q**e * floor + rem`` with every entry of ``rem`` below q**e.  The
terms sharing the same ``rem`` assemble into one component polynomial in
the floors, and those components generate the level-e root.  Coefficients
ride along unchanged because c**q == c in F_p.  The root is the left
adjoint of the bracket power: root(I, e) <= J exactly when I <= J^[q**e].

A generator of at least ``_COLUMNAR_TERMS`` terms is split by columns:
one pass per variable computes every term's remainder and one every
term's floor, and the columns are zipped back into tuples.  When all
remainders differ, every component is a single term and the root is the
unit ideal exactly when some floor is zero; otherwise the terms are
grouped by remainder and a constant component is looked for before any
component is built.  Shorter generators are split term by term, which
costs less below that size.  The rule reads only the generator's term
count, and both splits give the same components in the same order.
"""

from __future__ import annotations

from typing import Iterable

from .errors import check_int, check_member
from .groebner import Ideal
from .polyring import FROBENIUS_LEVEL_CAP, Exponents, Poly, Ring

# Term count from which a generator is split by columns: the crossover
# measured on the roots the benchmark decks take (two and three
# variables, CPython 3.11), where the columnar split took 1.04-1.15x the
# term loop's time at 6-7 terms and 0.70-0.88x at 8-10.
_COLUMNAR_TERMS = 8


def _root_gens(ring: Ring, gens: Iterable[Poly], e: int) -> tuple[Poly, ...]:
    # For each nonzero generator, one component polynomial per remainder
    # pattern, sorted by pattern.  A single term has one component, its
    # floor, which is also that component's leading monomial; so is each
    # one-term component of a long generator.  A component that is a
    # nonzero constant makes the root the unit ideal, so the scan returns
    # the constant 1 alone as soon as it finds one; a long generator is
    # checked before any of its components is built.  No exponent exceeds
    # MAX_TOTAL_DEGREE < q**FROBENIUS_LEVEL_CAP, so capping the level
    # changes no floor or remainder, and a huge q**e is never formed.
    Q = ring.q ** min(e, FROBENIUS_LEVEL_CAP)
    out: list[Poly] = []
    for g in gens:
        terms = g._terms
        if len(terms) == 1:
            for m, c in terms.items():
                floor = tuple([b // Q for b in m])
                if not any(floor):
                    return (ring.one,)
                out.append(Poly(ring, {floor: c}, floor))
            continue
        components: dict[Exponents, dict[Exponents, int]] = {}
        if len(terms) < _COLUMNAR_TERMS:
            for m, c in terms.items():
                rem = tuple([b % Q for b in m])
                floor = tuple([b // Q for b in m])
                components.setdefault(rem, {})[floor] = c
            for _, part in sorted(components.items()):
                if len(part) == 1 and not any(next(iter(part))):
                    return (ring.one,)
                out.append(Poly(ring, part))
            continue
        cols = tuple(zip(*terms))
        rems = list(zip(*[[b % Q for b in col] for col in cols]))
        floors = list(zip(*[[b // Q for b in col] for col in cols]))
        zero = (0,) * len(cols)
        if len(set(rems)) == len(rems):
            # every component is a single term
            if zero in floors:
                return (ring.one,)
            out += [
                Poly(ring, {floor: c}, floor)
                for _, floor, c in sorted(zip(rems, floors, terms.values()))
            ]
            continue
        get = components.get
        for rem, floor, c in zip(rems, floors, terms.values()):
            part = get(rem)
            if part is None:
                components[rem] = {floor: c}
            else:
                part[floor] = c
        if any(len(part) == 1 and zero in part for part in components.values()):
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
