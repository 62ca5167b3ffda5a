"""Frobenius roots: worked values, adjunction, composition, oracles."""

from __future__ import annotations

import random

import pytest

from fsing import DomainError, Ideal, Ring, ideal_root, poly_root
from fsing.frobroot import _COLUMNAR_TERMS, _root_gens
from fsing.oracle import monomial_root_oracle
from fsing.polyring import FROBENIUS_LEVEL_CAP

from conftest import rand_ideal, rand_poly

R2 = Ring(p=2, var_names=("x", "y"))
R3 = Ring(p=3, var_names=("x", "y"))
R2s2 = Ring(p=2, var_names=("x",), s=2)


class TestPolyRoot:
    def test_monomial_example(self):
        x, y = R2.gens
        assert poly_root(x**3 * y**2, 1) == Ideal(R2, (x * y,))

    def test_binomial_collapses_to_unit(self):
        x, y = R2.gens
        assert poly_root(x**2 + x * y, 1).is_unit()

    def test_splits_into_component_generators(self):
        x, y = R2.gens
        assert poly_root(x**2 + y**3, 1) == Ideal(R2, (x, y))

    def test_diagonal_stays_whole(self):
        x, y = R2.gens
        assert poly_root(x**2 + y**2, 1) == Ideal(R2, (x + y,))

    def test_zero_gives_zero_ideal(self):
        assert poly_root(R2.zero, 1).is_zero()

    def test_level_zero_rejected(self):
        x, _ = R2.gens
        with pytest.raises(DomainError):
            poly_root(x, 0)
        with pytest.raises(DomainError):
            ideal_root(Ideal(R2, (x,)), 0)

    def test_non_integer_level_rejected(self):
        x, _ = R2.gens
        with pytest.raises(DomainError):
            poly_root(x, 1.5)
        with pytest.raises(DomainError):
            ideal_root(Ideal(R2, (x,)), 1.5)

    def test_respects_frobenius_step(self):
        (x,) = R2s2.gens
        # q = 4: floor(5/4) = 1
        assert poly_root(x**5, 1) == Ideal(R2s2, (x,))

    def test_unit_when_constant_term_present(self):
        x, _ = R2.gens
        assert poly_root(x + 1, 1).is_unit()

    def test_a_huge_level_gives_the_root_at_the_cap(self):
        # every floor is 0 once q**e passes the degree guard, so the level
        # is capped before q**e is formed; 3**(10**12) is never computed
        x, y = R3.gens
        g = x**5 * y + 2 * y**7
        assert poly_root(g, 10**12).gens == (R3.one,)
        assert poly_root(R3.zero, 10**12) == Ideal(R3, ())
        ideal = Ideal(R3, (x**4, x * y**2))
        unit = Ideal(R3, (R3.one,))
        assert ideal_root(ideal, 10**12) == ideal_root(ideal, FROBENIUS_LEVEL_CAP) == unit


class TestIdealRoot:
    def test_level_two_floor(self):
        x, _ = R2.gens
        assert ideal_root(Ideal(R2, (x**5,)), 2) == Ideal(R2, (x,))

    def test_unit_component_returns_one_alone(self):
        x, y = R2.gens
        # at q = 2 the root of y is 1, and so is the component of
        # x**2 + y whose exponents have remainder pattern (0, 1)
        for g in (y, x**2 + y):
            root = ideal_root(Ideal(R2, (x**4, g, y**6)), 1)
            assert root.gens == (R2.one,)
            assert root.is_unit()

    def test_monomial_roots_carry_their_leading_monomial(self):
        x, y = R3.gens
        root = ideal_root(Ideal(R3, (x**7 * y**3, 2 * x**3 * y**5)), 1)
        assert [g._lm for g in root.gens] == [(2, 1), (1, 1)]
        assert [g.leading_monomial() for g in root.gens] == [(2, 1), (1, 1)]
        assert [g.coeff(g._lm) for g in root.gens] == [1, 2]

    def test_generator_independence(self):
        rng = random.Random(67)
        for ring in (R2, R3):
            for _ in range(25):
                ideal = rand_ideal(rng, ring, 2)
                gens = list(ideal.gens)
                if len(gens) >= 2:
                    gens[0] = gens[0] + gens[1] * rand_poly(rng, ring, 1, 1)
                gens.append(sum(gens, ring.zero))
                other = Ideal(ring, gens)
                assert other == ideal
                for e in (1, 2):
                    assert ideal_root(other, e) == ideal_root(ideal, e)

    def test_composition_law(self):
        rng = random.Random(71)
        for ring in (R2, R3):
            for _ in range(25):
                ideal = rand_ideal(rng, ring, 2)
                assert ideal_root(ideal_root(ideal, 1), 1) == ideal_root(ideal, 2)

    def test_monotone(self):
        rng = random.Random(73)
        for _ in range(25):
            small = rand_ideal(rng, R2, 2)
            extra = rand_poly(rng, R2, 2, 3)
            big = Ideal(R2, small.gens + ((extra,) if extra else ()))
            assert ideal_root(small, 1) <= ideal_root(big, 1)


class TestAdjunction:
    def test_root_bracket_galois_connection(self):
        rng = random.Random(79)
        seen_true = seen_false = 0
        for ring in (R2, R3):
            for _ in range(60):
                ideal = rand_ideal(rng, ring, 2)
                e = rng.choice((1, 2))
                if rng.random() < 0.5:
                    candidate = ideal_root(ideal, e)
                    if rng.random() < 0.5 and candidate.gens:
                        candidate = Ideal(ring, candidate.gens[1:])
                else:
                    candidate = rand_ideal(rng, ring, 2)
                lhs = ideal_root(ideal, e) <= candidate
                rhs = ideal <= candidate.bracket_power(e)
                assert lhs == rhs
                seen_true += lhs
                seen_false += not lhs
        assert seen_true and seen_false

    def test_expansion_bound(self):
        # I is always inside the bracket power of its root
        rng = random.Random(83)
        for _ in range(30):
            ideal = rand_ideal(rng, R2, 2)
            e = rng.choice((1, 2))
            assert ideal <= ideal_root(ideal, e).bracket_power(e)


class TestMonomialOracle:
    def test_floor_formula(self):
        assert monomial_root_oracle((3, 2), 2, 1) == (1, 1)
        assert monomial_root_oracle((5, 0), 2, 2) == (1, 0)
        assert monomial_root_oracle((8, 9), 3, 2) == (0, 1)

    def test_sampled_agreement_with_fast_path(self):
        rng = random.Random(89)
        for ring in (R2, R3):
            for _ in range(40):
                exps = tuple(rng.randint(0, 10) for _ in range(ring.n))
                e = rng.choice((1, 2))
                expected = ring.monomial(
                    monomial_root_oracle(exps, ring.q, e)
                )
                assert poly_root(ring.monomial(exps), e) == Ideal(ring, (expected,))


def _plain_split(gens: list[dict], Q: int) -> list[dict] | None:
    """The components of every generator, as plain dicts; None for (1).

    Each generator is an exponent -> coefficient dict.  Terms are grouped
    by remainder pattern mod Q; the components come in pattern order, and
    a component that is a nonzero constant makes the root the unit ideal.
    """
    out = []
    unit = False
    for terms in gens:
        components: dict[tuple, dict] = {}
        for m, c in terms.items():
            rem = tuple(b % Q for b in m)
            components.setdefault(rem, {})[tuple(b // Q for b in m)] = c
        for rem in sorted(components):
            part = components[rem]
            unit = unit or (len(part) == 1 and not any(next(iter(part))))
            out.append(part)
    return None if unit else out


class TestLongGenerators:
    """The columnar split against a plain-dict split of the same terms."""

    CUBIC = "x^3 + y^3 + z^3 + x*y*z"

    @staticmethod
    def _check(ring, gens, e):
        got = _root_gens(ring, gens, e)
        want = _plain_split([dict(g._terms) for g in gens], ring.q**e)
        if want is None:
            assert got == (ring.one,)
        else:
            assert [g._terms for g in got] == want
        if all(len(g) >= _COLUMNAR_TERMS for g in gens):
            for g in got:
                if len(g) == 1 and g != ring.one:
                    assert g._lm == next(iter(g._terms))
        return want is None

    def _cases(self):
        for p in (2, 3):
            ring = Ring(p=p, var_names=("x", "y", "z"))
            for k in range(2, 6):
                yield ring, [ring(self.CUBIC) ** (2**k - 1)], (1, 2, 3)
        s2 = Ring(p=2, var_names=("x", "y"), s=2)
        yield s2, [s2("x^7*y + x*y^6 + x^5 + y^3 + x^2*y^2") ** 3], (1, 2)
        lex = Ring(p=5, var_names=("x", "y", "z"), order="lex")
        yield lex, [lex(self.CUBIC) ** 7, lex("x^2*y + y^3*z + z^4") ** 4], (1, 2)
        rng = random.Random(97)
        for p in (2, 3, 5):
            ring = Ring(p=p, var_names=("x", "y", "z"))
            for e in (1, 2):
                Q = ring.q**e
                for _ in range(8):
                    # exponents up to 3Q fall on few remainder patterns, and
                    # x's is at least Q, so no floor is 0
                    gens = []
                    for _ in range(rng.randint(1, 3)):
                        terms = {}
                        for _ in range(rng.randint(_COLUMNAR_TERMS, 60)):
                            m = [rng.randint(0, 3 * Q) for _ in range(3)]
                            m[0] = max(m[0], Q)
                            terms[tuple(m)] = rng.randrange(1, p)
                        gens.append(ring.poly(terms))
                    yield ring, gens, (e,)

    def test_matches_a_plain_dict_split(self):
        long = units = proper = collided = 0
        for ring, gens, levels in self._cases():
            long += sum(len(g) >= _COLUMNAR_TERMS for g in gens)
            for e in levels:
                if self._check(ring, gens, e):
                    units += 1
                else:
                    proper += 1
                    Q = ring.q**e
                    collided += any(
                        len({tuple(b % Q for b in m) for m in g._terms}) < len(g)
                        for g in gens
                    )
        assert long >= 80 and units >= 10 and proper >= 50 and collided >= 20

    def test_a_unit_component_placed_last_returns_one_alone(self):
        ring = Ring(p=3, var_names=("x", "y", "z"))
        # one term per remainder pattern mod 3; x^2*y^2*z^2 has the largest
        # pattern (2, 2, 2) and the only floor 0
        unit = ring("x^2*y^2*z^2")
        rest = ring(
            "x^3 + x^4 + x^5 + y^4 + y^5 + z^4 + z^5 + x^4*y^4 + x^5*y^5*z^3"
        )
        distinct = rest + unit
        colliding = distinct + ring("x^6 + y^7 + x^3*y^3*z^5")
        for g in (distinct, colliding):
            assert len(g) - 1 >= _COLUMNAR_TERMS
            patterns = {tuple(b % 3 for b in m) for m in g._terms}
            assert (len(patterns) == len(g)) == (g == distinct)
            assert self._check(ring, [g], 1) is True
            assert self._check(ring, [g - unit], 1) is False
            assert _root_gens(ring, (g - unit, g), 1) == (ring.one,)
            assert ideal_root(Ideal(ring, (g - unit, g)), 1).gens == (ring.one,)

    def test_a_constant_inside_a_larger_component_is_no_unit(self):
        # x and x^3 share the pattern (1, 0, 0): the component 1 + x has
        # floor 0 in one term but is no constant
        ring = Ring(p=2, var_names=("x", "y", "z"))
        g = ring("x + x^3 + y^2*z^2 + x^2*y^4 + z^6 + x^4*y^2*z^2 + y^3*z^2 + x^2*y*z^5")
        assert len(g) >= _COLUMNAR_TERMS
        assert self._check(ring, [g], 1) is False
        assert ring("1 + x") in _root_gens(ring, (g,), 1)
