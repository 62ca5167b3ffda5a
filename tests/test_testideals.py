"""Test ideals, the two chains, threshold counters and brackets."""

from __future__ import annotations

import json
import pathlib
import random
from fractions import Fraction

import pytest

import fsing.testideals as testideals
from fsing import (
    DomainError,
    FptBracket,
    Ideal,
    Ring,
    fpt_bracket,
    iterate_exponent,
    je_chain,
    minimality_vs_fpt,
    nu,
    poly_root,
)
from fsing import test_ideal as tau
from fsing.oracle import bracket_membership_oracle

from conftest import rand_poly

BENCH_DATA = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
R1 = Ring(p=2, var_names=("x",))
R2 = Ring(p=2, var_names=("x", "y"))
R3 = Ring(p=3, var_names=("x",))
R32 = Ring(p=3, var_names=("x", "y"))
R5 = Ring(p=5, var_names=("x",))
CUBIC_RING = Ring(p=2, var_names=("x", "y", "z"))
CUBIC = CUBIC_RING("x^3 + y^3 + z^3 + x*y*z")


def ideal_of(ring: Ring, *gens: str) -> Ideal:
    return Ideal(ring, tuple(ring(g) for g in gens))


class TestTestIdeal:
    def test_exponent_five_over_four(self):
        assert tau(R1("x"), 5, 2) == ideal_of(R1, "x")

    def test_zero_exponent_is_unit(self):
        for e in (1, 2, 3):
            assert tau(R2("x*y"), 0, e).is_unit()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tau(R1("x"), -1, 1)
        with pytest.raises(DomainError):
            tau(R1("x"), 2, 0)

    @pytest.mark.parametrize("m,e", [(2.0, 1), (2, 1.5)])
    def test_non_integer_exponent_or_level_rejected(self, m, e):
        with pytest.raises(DomainError):
            tau(R1("x"), m, e)

    def test_monotone_in_numerator(self):
        rng = random.Random(11)
        for _ in range(12):
            ring = rng.choice([R1, R2, R3])
            f = rand_poly(rng, ring, 3, 3, nonzero=True)
            for e in (1, 2):
                small = tau(f, 3, e)
                big = tau(f, 4, e)
                assert big <= small

    def test_monotone_in_level(self):
        # a deeper root can only grow: J <= root(J)^[q] <= root(J)
        rng = random.Random(13)
        for _ in range(12):
            ring = rng.choice([R1, R2, R3])
            f = rand_poly(rng, ring, 3, 3, nonzero=True)
            assert tau(f, 3, 1) <= tau(f, 3, 2)

    def test_level_shift_by_q_factor(self):
        # tau(f^(mq/q^(e+1))) equals tau(f^(m/q^e))
        rng = random.Random(17)
        for _ in range(10):
            ring = rng.choice([R1, R2, R3])
            f = rand_poly(rng, ring, 2, 3, nonzero=True)
            q = ring.q
            assert tau(f, 3 * q, 2) == tau(f, 3, 1)

    def test_descent_matches_expanded_root(self):
        # the descent against the one-shot root of the expanded power,
        # over m in [0, 2*q^e + 2]: m = 0, every digit pattern, and the
        # f^r factor for m >= q^e
        rng = random.Random(29)
        rings = [
            Ring(p=p, var_names=names)
            for p in (2, 3, 5)
            for names in (("x",), ("x", "y"), ("x", "y", "z"))
        ]
        checked = 0
        for _ in range(60):
            ring = rng.choice(rings)
            f = rand_poly(rng, ring, 3, 3, nonzero=True)
            q = ring.q
            for e in (1, 2, 3):
                top = 2 * q**e + 2
                exponents = {0, q**e, top} | {rng.randint(0, top) for _ in range(3)}
                for m in sorted(exponents):
                    assert tau(f, m, e) == poly_root(f**m, e), (ring, f, m, e)
                    checked += 1
        assert checked >= 800

    def test_large_exponent_without_expansion(self):
        # f**(10**6) exceeds the degree guard; the descent never forms it
        assert tau(CUBIC, 10**6, 20).is_unit()


class TestJeChain:
    def test_cubed_variable_chain(self):
        levels = je_chain(R1("x^3"), 3)
        wanted = [ideal_of(R1, "x"), ideal_of(R1, "x^2"), ideal_of(R1, "x^2")]
        for level, expected in zip(levels, wanted):
            assert level.direct == expected
            assert level.iterated == expected
            assert level.equal

    def test_unit_chain_for_single_variable(self):
        for ring in (R1, R3):
            for level in je_chain(ring("x"), 4):
                assert level.direct.is_unit()
                assert level.iterated.is_unit()
                assert level.equal

    def test_zero_multiplier_chain(self):
        for level in je_chain(R1("0"), 3):
            assert level.direct.is_zero()
            assert level.iterated.is_zero()
            assert level.equal

    def test_levels_numbered_from_one(self):
        levels = je_chain(R2("x*y^2"), 3)
        assert [level.level for level in levels] == [1, 2, 3]

    def test_equal_flags_on_random_inputs(self):
        rng = random.Random(19)
        for _ in range(15):
            ring = rng.choice([R1, R2, R3, R32])
            f = rand_poly(rng, ring, 3, 4)
            for level in je_chain(f, 3):
                assert level.equal

    def test_grown_power_matches_the_expanded_power(self, monkeypatch):
        # the direct column multiplies in one Frobenius twist of f per
        # level; on the benchmark's fthreshold polynomials, its power and
        # its reduced bases match f**(1 + q + ... + q**(e-1)) and its root
        pool = json.loads((BENCH_DATA / "fthreshold.json").read_text())
        cases = sorted({(s["p"], tuple(s["vars"]), s["f"]) for s in pool["slots"]})
        assert len(cases) >= 15
        powers: list = []
        real = testideals.poly_root

        def spy(g, e):
            powers.append(g)
            return real(g, e)

        monkeypatch.setattr(testideals, "poly_root", spy)
        for p, names, text in cases:
            ring = Ring(p=p, var_names=names)
            f = ring(text)
            powers.clear()
            levels = je_chain(f, 6)
            assert len(powers) == 6
            for level, power in zip(levels, powers):
                e = level.level
                expanded = f ** iterate_exponent(ring.q, e)
                assert power._terms == expanded._terms, (text, p, e)
                assert level.direct.groebner() == real(expanded, e).groebner()

    def test_bad_length(self):
        with pytest.raises(DomainError):
            je_chain(R1("x"), 0)

    def test_non_integer_length_rejected(self):
        with pytest.raises(DomainError):
            je_chain(R1("x"), 2.0)


class TestNu:
    def test_single_variable(self):
        for ring in (R1, R3):
            q = ring.q
            for e in (1, 2, 3, 4):
                assert nu(ring("x"), e) == q**e - 1

    def test_univariate_powers_closed_form(self):
        for ring in (R1, R3):
            q = ring.q
            x = ring("x")
            for a in range(1, 7):
                for e in (1, 2, 3, 4):
                    expected = -(-(q**e) // a) - 1
                    assert nu(x**a, e) == expected

    def test_monomial_cross(self):
        for ring in (R2, R32):
            q = ring.q
            for e in (1, 2, 3):
                assert nu(ring("x*y"), e) == q**e - 1

    def test_cusp_in_characteristic_two(self):
        # at level 24 an expanded f**m would exceed the degree guard
        f = R2("x^2 + y^3")
        for e in (1, 2, 3, 4, 5, 6, 12, 24):
            assert nu(f, e) == 2 ** (e - 1) - 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nu(R1("x"), 0)
        with pytest.raises(DomainError):
            nu(R1("0"), 1)
        with pytest.raises(DomainError):
            nu(R1("x + 1"), 1)

    def test_non_integer_level_rejected(self):
        with pytest.raises(DomainError):
            nu(R1("x"), 2.0)

    def test_descent_steps_grow_linearly_with_the_level(self, monkeypatch):
        # the digits already found never change, so for the cusp each
        # level's probe rejoins the previous level's descent after one
        # step: 2e - 1 steps at p = 2, not e(e+1)/2
        calls = []
        step = testideals._Descent.step

        def counted(self, d, ideal):
            calls.append(d)
            return step(self, d, ideal)

        monkeypatch.setattr(testideals._Descent, "step", counted)
        e = 2000
        assert nu(R2("x^2 + y^3"), e) == 2 ** (e - 1) - 1
        assert len(calls) <= 2 * e

    def test_against_linear_scan(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(20):
            ring = rng.choice([R1, R2, R3, R5])
            f = rand_poly(rng, ring, 2, 3)
            if not f or f.constant_term() != 0:
                continue
            for e in (1, 2, 3):
                value = nu(f, e)
                m = 0
                while not bracket_membership_oracle(f ** (m + 1), e):
                    m += 1
                assert value == m
                checked += 1
        assert checked >= 8

    def test_digit_bracket(self):
        # Mustata-Takagi-Watanabe: q*nu(e-1) <= nu(e) <= q*nu(e-1) + q - 1
        rng = random.Random(31)
        checked = 0
        for _ in range(30):
            ring = rng.choice([R1, R2, R3, R32, R5, CUBIC_RING])
            f = rand_poly(rng, ring, 3, 3)
            if not f or f.constant_term() != 0:
                continue
            q = ring.q
            previous = 0
            for e in (1, 2, 3, 4):
                value = nu(f, e)
                assert q * previous <= value <= q * previous + q - 1, (ring, f, e)
                previous = value
            checked += 1
        assert checked >= 15

    def test_against_ideal_membership(self):
        # independent of the divisibility oracle: genuine normal forms
        for ring, f_text, e in [
            (R1, "x^3", 2),
            (R2, "x^2 + y^3", 2),
            (R2, "x*y", 2),
            (R3, "x^2", 1),
            (R32, "x^2*y", 1),
        ]:
            f = ring(f_text)
            value = nu(f, e)
            bracket = Ideal(
                ring, tuple(g ** (ring.q**e) for g in ring.gens)
            )
            assert not bracket.contains(f**value)
            assert bracket.contains(f ** (value + 1))


class TestFptBracket:
    def test_single_variable_level_four(self):
        bracket = fpt_bracket(R1("x"), 4)
        assert bracket.nu == 15
        assert bracket.lo == Fraction(15, 16)
        assert bracket.hi == Fraction(1)
        assert str(bracket) == "(15/16, 1]"

    def test_cube_in_characteristic_three(self):
        bracket = fpt_bracket(R3("x^3"), 2)
        assert bracket == FptBracket(
            level=2, nu=2, lo=Fraction(2, 9), hi=Fraction(1, 3)
        )

    def test_width_is_exact(self):
        for ring, text, e in [(R1, "x^2", 3), (R3, "x", 2), (R2, "x*y", 2)]:
            bracket = fpt_bracket(ring(text), e)
            assert bracket.hi - bracket.lo == Fraction(1, ring.q**e)
            assert bracket.lo == Fraction(bracket.nu, ring.q**e)

    def test_bracket_contains_known_threshold(self):
        # the threshold of x^a is 1/a; each level bracket must contain it
        for ring in (R1, R3):
            x = ring("x")
            for a in range(1, 6):
                for e in (2, 3, 4):
                    bracket = fpt_bracket(x**a, e)
                    assert bracket.lo < Fraction(1, a) <= bracket.hi

    def test_cubic_at_level_sixteen(self):
        bracket = fpt_bracket(CUBIC, 16)
        assert bracket.nu == 2**16 - 1
        assert bracket.hi == 1

    def test_cusp_brackets_contain_one_half(self):
        f = R2("x^2 + y^3")
        for e in range(1, 7):
            bracket = fpt_bracket(f, e)
            assert bracket.lo < Fraction(1, 2) <= bracket.hi


class TestMinimalityVsFpt:
    CURATED = {
        2: {
            "x": True,
            "x^2": False,
            "x^3": False,
            "x*y": True,
            "x^2 + x*y": True,
            "x^2 + y^3": False,
        },
        3: {
            "x": True,
            "x^2": True,
            "x^3": False,
            "x*y": True,
            "x^2 + x*y": True,
            "x^2 + y^3": True,
        },
    }

    def test_curated_table(self):
        for p, table in self.CURATED.items():
            ring = Ring(p=p, var_names=("x", "y"))
            for text, expected in table.items():
                report = minimality_vs_fpt(ring(text), e_max=4)
                assert report.minimal == expected, (p, text)
                assert report.chain_unit == expected, (p, text)
                assert report.bracket is not None
                if expected:
                    assert report.bracket.hi >= Fraction(1, ring.q - 1)

    def test_nonvanishing_constant_term_has_no_bracket(self):
        report = minimality_vs_fpt(R1("x + 1"), e_max=3)
        assert report.minimal
        assert report.chain_unit
        assert report.bracket is None

    def test_stabilization_levels(self):
        assert minimality_vs_fpt(R1("x")).stabilized_at == 1
        assert minimality_vs_fpt(R1("x^2")).stabilized_at == 2
        assert minimality_vs_fpt(R1("x^3")).stabilized_at == 3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            minimality_vs_fpt(R1("0"))
        with pytest.raises(DomainError):
            minimality_vs_fpt(R1("x"), e_max=0)

    def test_non_integer_level_rejected(self):
        with pytest.raises(DomainError):
            minimality_vs_fpt(R1("x"), e_max=2.0)
