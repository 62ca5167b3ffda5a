"""F-pure thresholds in closed form, against ``nu``.

By Mustata-Takagi-Watanabe, nu(f, e)/q**e < fpt(f) <= (nu(f, e) + 1)/q**e
at every level, so nu(f, e) = ceil(fpt * q**e) - 1 wherever fpt is known
exactly.  The families below have thresholds in closed form at every
prime of a residue class, so the reference is a few lines of ``Fraction``
arithmetic: no basis, no root and no code shared with ``nu``.

- Diagonal hypersurfaces x_1**a_1 + ... + x_n**a_n at p = 1 mod
  lcm(a_i): fpt = min(1, sum 1/a_i) (Hernandez, Proc. AMS 2015).
- The cusp x**2 + y**3 at p = 5 mod 6: fpt = 5/6 - 1/(6p).
- The Fermat cubic x**3 + y**3 + z**3 at p = 2 mod 3, where it is
  supersingular: fpt = 1 - 1/p (Bhatt-Singh, Math. Ann. 2015).

Each variable is scaled, x_i -> c_i x_i with c_i a unit, which changes no
threshold and keeps the polynomials off the monic form.  Large p is where
the reference is cheap and ``nu`` is not, so the primes stay small.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from fsing import Ring
from fsing.testideals import nu

NAMES = ("x", "y", "z", "w")


def _primes(below: int) -> list[int]:
    return [n for n in range(2, below) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def _expected(fpt: Fraction, Q: int) -> int:
    # the largest m with m/Q < fpt
    return math.ceil(fpt * Q) - 1


def _scaled_sum(rng: random.Random, ring: Ring, powers: tuple[int, ...]):
    out = ring.zero
    for x, a in zip(ring.gens, powers):
        out = out + (rng.randrange(1, ring.p) * x) ** a
    return out


# The diagonal exponent vectors, each with the bound on its primes: the
# cost of nu grows steeply with p in three and four variables, and
# (2, 3, 5) and (2, 3, 7) first fit at p = 31 and 43.
DIAGONALS = {(2, 2): 102, (2, 3): 102, (2, 4): 102, (3, 3): 102, (2, 2, 3): 30, (3, 3, 3): 30,
             (2, 3, 5): 32, (2, 3, 7): 44, (2, 2, 2, 2): 14}


def _diagonal_cases():
    for powers, below in DIAGONALS.items():
        fpt = min(Fraction(1), sum(Fraction(1, a) for a in powers))
        for p in _primes(below):
            if p % math.lcm(*powers) == 1:
                yield powers, p, fpt


def _cusp_cases():
    for p in _primes(72):
        if p % 6 == 5:
            yield (2, 3), p, Fraction(5, 6) - Fraction(1, 6 * p)


def _cubic_cases():
    for p in _primes(30):
        if p % 3 == 2:
            yield (3, 3, 3), p, 1 - Fraction(1, p)


FAMILIES = {"diagonal": _diagonal_cases, "cusp": _cusp_cases, "fermat-cubic": _cubic_cases}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_nu_is_the_closed_form_threshold_rounded(family):
    rng = random.Random(family)
    cases = list(FAMILIES[family]())
    checked = 0
    for powers, p, fpt in cases:
        ring = Ring(p=p, var_names=NAMES[: len(powers)])
        f = _scaled_sum(rng, ring, powers)
        for e in (1, 2, 3):
            assert nu(f, e) == _expected(fpt, p**e), (family, powers, p, e)
            checked += 1
    assert checked >= {"diagonal": 210, "cusp": 30, "fermat-cubic": 18}[family]


def test_a_larger_frobenius_step_reads_the_same_threshold():
    # over Ring(s=2), q = p**2, so level e is level 2e of the prime field
    rng = random.Random(5)
    for powers, p, fpt in [((2, 3), 5, Fraction(5, 6) - Fraction(1, 30)),
                           ((3, 3, 3), 2, Fraction(1, 2)),
                           ((2, 3), 7, Fraction(5, 6)),
                           ((3, 3, 3), 5, Fraction(4, 5))]:
        ring = Ring(p=p, var_names=NAMES[: len(powers)], s=2)
        f = _scaled_sum(rng, ring, powers)
        for e in (1, 2):
            assert nu(f, e) == _expected(fpt, p ** (2 * e)), (powers, p, e)


def test_the_references_are_the_known_small_values():
    # the formulas themselves, on values that need no library
    assert _expected(Fraction(5, 6) - Fraction(1, 30), 5) == 3
    assert _expected(Fraction(1, 2), 2) == 0 and _expected(Fraction(1, 2), 4) == 1
    assert _expected(Fraction(1), 7) == 6
    assert [p for _, p, _ in _cubic_cases()] == [2, 5, 11, 17, 23, 29]
    assert [p for _, p, _ in _cusp_cases()][:3] == [5, 11, 17]
