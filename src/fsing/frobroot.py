"""Frobenius roots: the smallest ideal whose bracket power contains the input.

For a polynomial g and level e, write each exponent vector as
``beta = q**e * floor + rem`` with every entry of ``rem`` below q**e.  The
terms sharing the same ``rem`` assemble into one component polynomial in
the floors, and those components generate the level-e root.  Coefficients
ride along unchanged because c**q == c in F_p.  The root is the left
adjoint of the bracket power: root(I, e) <= J exactly when I <= J^[q**e].
"""

from __future__ import annotations

from typing import Iterable

from .errors import check_int, check_member
from .groebner import Ideal
from .polyring import FROBENIUS_LEVEL_CAP, Exponents, Poly, Ring


def _root_gens(ring: Ring, gens: Iterable[Poly], e: int) -> tuple[Poly, ...]:
    # For each nonzero generator, one component polynomial per remainder
    # pattern, sorted by pattern; a single term has one component, its
    # floor, which is also that component's leading monomial.  A component
    # that is a nonzero constant makes the root the unit ideal, so the scan
    # stops there and returns the constant 1 alone.  No exponent exceeds
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
        for m, c in terms.items():
            rem = tuple([b % Q for b in m])
            floor = tuple([b // Q for b in m])
            components.setdefault(rem, {})[floor] = c
        for _, part in sorted(components.items()):
            if len(part) == 1 and not any(next(iter(part))):
                return (ring.one,)
            out.append(Poly(ring, part))
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
