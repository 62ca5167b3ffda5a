"""Test ideals of principal ideals, threshold brackets, and cross-checks.

The level-e test ideal of f at exponent m/q**e is the level-e Frobenius
root of (f**m).  Two chains probe the same minimal-model theory from
different angles: the direct chain evaluates the root of f at exponent
1 + q + ... + q**(e-1) in one shot, while the iterated chain applies a
single multiply-and-root step e times starting from the unit ideal.  They
agree level by level, and they collapse to the unit ideal exactly when the
principal module on f is already minimal; over the threshold side, the
level-e bracket pins the F-pure threshold of f at the origin into an
interval of width q**-e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvariantError
from .frobmod import FrobModule, iterate_exponent, shrink_step
from .frobroot import poly_root
from .groebner import Ideal
from .oracle import bracket_membership_oracle
from .polyring import Poly


def test_ideal(f: Poly, m: int, e: int) -> Ideal:
    """Test ideal of f at exponent m/q**e: the level-e root of (f**m).

    m == 0 yields the unit ideal; the level e must be >= 1.
    """
    if m < 0:
        raise DomainError(f"test ideal exponents are nonnegative, got m={m}")
    if e < 1:
        raise DomainError(f"test ideal levels must be >= 1, got {e}")
    ring = f.ring
    if m == 0:
        return Ideal(ring, (ring.one,))
    return poly_root(f**m, e)


@dataclass(frozen=True)
class ChainLevel:
    """One level of the direct-vs-iterated test ideal comparison."""

    level: int
    direct: Ideal
    iterated: Ideal
    equal: bool


def je_chain(f: Poly, e_max: int) -> list[ChainLevel]:
    """Compare the two test-ideal chains level by level up to e_max.

    ``direct`` is the level-e test ideal at exponent
    (1 + q + ... + q**(e-1))/q**e; ``iterated`` applies the single
    multiply-and-root step e times from the unit ideal.  The ``equal``
    flags record the comparison instead of assuming it.
    """
    if e_max < 1:
        raise DomainError(f"chain length must be >= 1, got {e_max}")
    ring = f.ring
    q = ring.q
    zero = Ideal(ring, ())
    levels: list[ChainLevel] = []
    iterated = Ideal(ring, (ring.one,))
    for e in range(1, e_max + 1):
        iterated = shrink_step(zero, f, iterated)
        direct = test_ideal(f, iterate_exponent(q, e), e).canonical()
        levels.append(
            ChainLevel(level=e, direct=direct, iterated=iterated, equal=direct == iterated)
        )
    return levels


def nu(f: Poly, e: int) -> int:
    """Largest m with f**m outside the bracket power of the maximal ideal.

    Requires f nonzero and f(0) == 0 (otherwise no power ever enters, or
    every one does).  Found by binary search on m in [0, n*q**e]; the
    membership test is a pure monomial-divisibility check, no bases.
    """
    if e < 1:
        raise DomainError(f"threshold levels must be >= 1, got {e}")
    if not f:
        raise DomainError("nu is undefined for the zero polynomial")
    if f.constant_term() != 0:
        raise DomainError("nu requires a polynomial vanishing at the origin")
    ring = f.ring
    # Every term of f**m has degree >= m, and any monomial of degree
    # > n*(q**e - 1) has some exponent >= q**e, so m = n*q**e is inside.
    lo, hi = 0, ring.n * ring.q**e
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bracket_membership_oracle(f**mid, e):
            hi = mid
        else:
            lo = mid
    return lo


@dataclass(frozen=True)
class FptBracket:
    """Level-e bracket (lo, hi] of width q**-e around the F-pure threshold."""

    level: int
    nu: int
    lo: Fraction
    hi: Fraction

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi}]"


def fpt_bracket(f: Poly, e: int) -> FptBracket:
    """The interval (nu/q**e, (nu+1)/q**e] containing the threshold."""
    value = nu(f, e)
    Q = Fraction(f.ring.q) ** e
    return FptBracket(
        level=e, nu=value, lo=Fraction(value) / Q, hi=Fraction(value + 1) / Q
    )


@dataclass(frozen=True)
class MinimalityFptReport:
    """Side-by-side minimality and threshold signals for a principal module.

    ``bracket`` is None when f does not vanish at the origin (the local
    threshold is undefined there); the global signals are always present.
    """

    minimal: bool
    chain_unit: bool
    stabilized_at: int
    bracket: FptBracket | None


def minimality_vs_fpt(f: Poly, e_max: int = 6) -> MinimalityFptReport:
    """Cross-check minimality of the principal module against thresholds.

    Checks that minimality of the module on f is equivalent to the
    iterated test-ideal chain staying at the unit ideal, and, when the
    level-``e_max`` bracket exists and the module is minimal, that the
    bracket is consistent with a threshold >= 1/(q-1); a failed check
    raises :class:`InvariantError`.  The iterated chain is the shrinking
    chain that minimalize walks on the principal module; it descends from
    (1), so it stays at (1) exactly when its fixed point does.
    """
    if not f:
        raise DomainError("the cross-check requires a nonzero multiplier")
    if e_max < 1:
        raise DomainError(f"bracket levels must be >= 1, got {e_max}")
    q = f.ring.q
    module = FrobModule.principal(f)
    minimal = module.is_minimal()
    report = module.minimalize()
    chain_unit = report.result.ambient.is_unit()
    stabilized_at = report.fr_iterations + 1

    bracket = fpt_bracket(f, e_max) if f.constant_term() == 0 else None

    if minimal != chain_unit:
        raise InvariantError(
            "minimality of the principal module must match a unit test-ideal "
            f"chain; got minimal={minimal}, chain_unit={chain_unit} for f={f}"
        )
    if minimal and bracket is not None and bracket.hi < Fraction(1, q - 1):
        raise InvariantError(
            "a minimal principal module forces a threshold >= 1/(q-1); the "
            f"level-{e_max} bracket {bracket} contradicts that for f={f}"
        )
    return MinimalityFptReport(
        minimal=minimal,
        chain_unit=chain_unit,
        stabilized_at=stabilized_at,
        bracket=bracket,
    )
