"""Test ideals of principal ideals, threshold brackets, and cross-checks.

The level-e test ideal of f at exponent m/q**e is the level-e Frobenius
root of (f**m).  It is computed as a descent that never expands f**m.
Write m = d_0 + d_1*q + ... + d_{e-1}*q**(e-1) + q**e * r with digits d_i
in [0, q-1].  Since (g**q * h)^[1/q] = g * h^[1/q], the root of f**m is
f**r * J_e, where J_0 = (1) and J_{i+1} = root(f**d_i * J_i, 1): the
shrinking step of :mod:`fsing.frobmod` with relations (0).

By adjunction, root(g, e) lies in the maximal ideal (x_1..x_n) exactly
when g lies in its q**e-th bracket power.  So nu, the largest m with f**m
outside that bracket power, is read off descents digit by digit: the
level-e value is q times the level-(e-1) value plus one more digit, and
only that digit is searched.

Two chains probe the same minimal-model theory from different angles: the
direct chain expands f at exponent 1 + q + ... + q**(e-1) and takes its
level-e root in one shot, while the iterated chain is the descent above
with every digit 1, started at the unit ideal.  They agree level by level,
and they collapse to the unit ideal exactly when the
principal module on f is already minimal; over the threshold side, the
level-e bracket pins the F-pure threshold of f at the origin into an
interval of width q**-e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice

from .errors import DomainError, InvariantError, check_int, check_member
from .frobmod import FrobModule, shrink_step, walk
from .frobroot import poly_root
from .groebner import Ideal
from .polyring import Poly


class _Descent:
    """The descent J_0 = (1), J_{i+1} = root(f**d_i * J_i, 1) for one f.

    The only code that steps a test-ideal chain.  Each step is computed
    once per instance, keyed by its digit and the reduced basis of its
    input; an instance lives for one call of :func:`test_ideal`,
    :func:`je_chain` or :func:`nu` only.
    """

    def __init__(self, f: Poly):
        ring = f.ring
        self.f = f
        self.zero = Ideal(ring, ())
        self.unit = Ideal(ring, (ring.one,)).canonical()
        self.steps: dict[tuple[int, tuple[Poly, ...]], Ideal] = {}

    def step(self, d: int, ideal: Ideal) -> Ideal:
        """root(f**d * ideal, 1), canonical."""
        key = (d, ideal.groebner())
        out = self.steps.get(key)
        if out is None:
            out = self.steps[key] = shrink_step(self.zero, self.f**d, ideal)
        return out


def test_ideal(f: Poly, m: int, e: int) -> Ideal:
    """Test ideal of f at exponent m/q**e: the level-e root of (f**m).

    Computed as f**r * J_e by the descent over the base-q digits d_i of
    m = d_0 + d_1*q + ... + d_{e-1}*q**(e-1) + q**e * r (see the module
    docstring), so f**m is never expanded.  Digits past the top of m are 0;
    that tail is a :func:`walk` of plain roots, cut at its fixed point.
    m == 0 yields the unit ideal; the level e must be >= 1.
    """
    check_member(f, Poly, "the polynomial")
    check_int(m, "the test ideal exponent", 0)
    check_int(e, "the test ideal level", 1)
    q = f.ring.q
    digits: list[int] = []
    rest = m
    while rest and len(digits) < e:
        rest, d = divmod(rest, q)
        digits.append(d)
    descent = _Descent(f)
    cur = descent.unit
    for d in digits:
        cur = descent.step(d, cur)
    *_, cur = islice(walk(partial(descent.step, 0), cur), e - len(digits) + 1)
    return cur.scale(f**rest) if rest else cur


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
    (1 + q + ... + q**(e-1))/q**e, taken as the one-shot root of the
    expanded power rather than by the descent of :func:`test_ideal`, so
    that the two columns are independent routes; the power starts at f and
    grows by one Frobenius twist of f per level.  ``iterated`` is the
    descent of :func:`test_ideal` with every digit 1, as a :func:`walk`:
    past its fixed point the level repeats it instead of stepping again.
    The ``equal`` flags record the comparison instead of assuming it.
    """
    check_member(f, Poly, "the polynomial")
    check_int(e_max, "the chain length", 1)
    descent = _Descent(f)
    column = walk(partial(descent.step, 1), descent.unit)
    iterated = next(column)
    levels: list[ChainLevel] = []
    # f**(1 + q + ... + q**(e-1)) at level e, from f itself: no product by one
    powers = accumulate((f.frobenius_power(i) for i in range(e_max)), Poly.__mul__)
    for e, power in enumerate(powers, 1):
        iterated = next(column, iterated)  # past the fixed point, repeat it
        direct = poly_root(power, e).canonical()
        levels.append(
            ChainLevel(level=e, direct=direct, iterated=iterated, equal=direct == iterated)
        )
    return levels


def nu(f: Poly, e: int) -> int:
    """Largest m with f**m outside the bracket power of the maximal ideal.

    Requires f nonzero and f(0) == 0 (otherwise no power ever enters, or
    every one does).  By adjunction, f**m lies outside (x_1..x_n)^[q**k]
    exactly when its level-k root, the descent J_k over the digits of m,
    has a generator with a nonzero constant term.  Found digit by digit:
    nu(0) = 0 and nu(k) = q*nu(k-1) + d with d in [0, q-1]
    (Mustata-Takagi-Watanabe).  d = 0 is always outside, by flatness of
    Frobenius, and d = q always inside, so the largest d outside is found
    by bisection; membership is monotone in d.  A probe's descent starts
    with its candidate digit and then runs over the digits already found,
    which never change, so the part past each ideal it meets is computed
    once per call: the cost is linear in e when the descents meet.
    """
    check_member(f, Poly, "the polynomial")
    check_int(e, "the threshold level", 1)
    if not f:
        raise DomainError("nu is undefined for the zero polynomial")
    if f.constant_term() != 0:
        raise DomainError("nu requires a polynomial vanishing at the origin")
    q = f.ring.q
    descent = _Descent(f)
    top: list[int] = []  # digits of the current value, highest first
    # tails[n, basis of I]: I carried through the steps of top[n-1], ...,
    # top[0], the n highest digits.  New digits join top at its low end,
    # so these never change and a tail stays valid once found; a probe
    # walks only until it meets an ideal an earlier probe passed at the
    # same depth.
    tails: dict[tuple[int, tuple[Poly, ...]], Ideal] = {}
    value = 0
    for _ in range(e):
        lo, hi = 0, q
        while hi - lo > 1:
            mid = (lo + hi) // 2
            root = descent.step(mid, descent.unit)
            walked = []
            for n in range(len(top), 0, -1):
                key = (n, root.groebner())
                if key in tails:
                    root = tails[key]
                    break
                walked.append(key)
                root = descent.step(top[n - 1], root)
            for key in walked:
                tails[key] = root
            if any(g.constant_term() for g in root.gens):
                lo = mid
            else:
                hi = mid
        top.append(lo)
        value = q * value + lo
    return value


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
    check_member(f, Poly, "the multiplier")
    if not f:
        raise DomainError("the cross-check requires a nonzero multiplier")
    check_int(e_max, "the bracket level", 1)
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
