"""Frobenius roots: worked values, adjunction, composition, oracles."""

from __future__ import annotations

import random

import pytest

import fsing.frobroot as frobroot
import fsing.polyring as polyring
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
        assert [list(g.terms()) for g in root.gens] == [[((2, 1), 1)], [((1, 1), 2)]]
        assert [g.leading_monomial() for g in root.gens] == [(2, 1), (1, 1)]
        assert [g.coeff(g.leading_monomial()) for g in root.gens] == [1, 2]

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
        want = _plain_split([dict(g.terms()) for g in gens], ring.q**e)
        if want is None:
            assert got == (ring.one,)
        else:
            assert [dict(g.terms()) for g in got] == want
        if all(len(g) >= _COLUMNAR_TERMS for g in gens):
            for g in got:
                if len(g) == 1 and g != ring.one:
                    assert g.leading_monomial() == next(iter(dict(g.terms())))
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
                        len({tuple(b % Q for b in m) for m, _ in g.terms()}) < len(g)
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
            patterns = {tuple(b % 3 for b in m) for m, _ in g.terms()}
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

    def test_a_unique_constant_gives_the_unit_ideal_alone(self):
        ring = Ring(p=3, var_names=("x", "y", "z"))
        # x^2*y^2*z^2 has the only floor 0 and the only remainder (2, 2, 2);
        # the other terms' remainders are all distinct in the first
        # generator and partly shared in the second
        distinct = ring(
            "x^3 + x^4 + x^5 + y^4 + y^5 + z^4 + z^5 + x^4*y^4 + x^5*y^5*z^3"
            " + x^2*y^2*z^2"
        )
        colliding = distinct + ring("x^6 + y^7 + x^3*y^3*z^5")
        # in one variable, x^2 is the only term whose remainder is 2
        single = Ring(p=3, var_names=("x",))
        one = single("x^2 + x^3 + x^6 + x^9 + x^12 + x^15 + x^18 + x^21")
        for g in (distinct, colliding, one):
            assert len(g) >= _COLUMNAR_TERMS
            assert _root_gens(g.ring, (g,), 1) == (g.ring.one,)
            assert poly_root(g, 1).gens == (g.ring.one,)

    def test_constants_sharing_their_remainders_split_like_plain_dicts(self):
        # every floor-0 term (1, x, y*z, x*y*z) shares its remainder with a
        # term of floor above 0, so no component is a constant at level 1
        ring = Ring(p=2, var_names=("x", "y", "z"))
        g = ring("1 + x + y*z + x*y*z + x^2 + x^3 + y^3*z + x^3*y*z^3 + x^4*y^2")
        assert len(g) >= _COLUMNAR_TERMS
        assert self._check(ring, [g], 1) is False
        assert ring("1 + x^2*y + x") in _root_gens(ring, (g,), 1)
        # at level 2 only x^4*y^2 has a floor above 0, so 1 is a constant
        assert self._check(ring, [g], 2) is True

    @pytest.mark.parametrize("p, s", [(2, 2), (3, 1)])
    def test_one_variable_generators_match_a_plain_dict_split(self, p, s):
        ring = Ring(p=p, var_names=("x",), s=s)
        rng = random.Random(p)
        units = proper = 0
        for e in (2, 3):
            Q = ring.q**e
            for _ in range(30):
                # one exponent below Q at most, so its remainder is often
                # shared by no other term
                exps = {rng.randrange(Q)} if rng.random() < 0.7 else set()
                while len(exps) < _COLUMNAR_TERMS:
                    exps.add(rng.randrange(Q, 6 * Q))
                g = ring.poly({(b,): rng.randrange(1, p) for b in exps})
                if self._check(ring, [g], e):
                    units += 1
                else:
                    proper += 1
        assert units >= 15 and proper >= 15


class TestCharacteristicTwo:
    """The word split at p = 2, where q**e = 2**t, against plain dicts."""

    @staticmethod
    def _ideal(rng, ring, Q):
        # one to three generators: single terms, short and long ones; half
        # the time every term has an exponent at least Q, so no floor is 0,
        # and half the time terms copy an earlier one's remainder
        top = min(3 * Q, polyring.MAX_TOTAL_DEGREE // ring.n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            size = rng.choice((1, 1, 2, 3, 5, _COLUMNAR_TERMS, 20, 40))
            proper, shared = rng.random() < 0.5, rng.random() < 0.5
            terms = {}
            for _ in range(size):
                m = [rng.randint(0, top) for _ in range(ring.n)]
                if shared and terms:
                    m = list(rng.choice(list(terms)))
                    m[rng.randrange(ring.n)] += Q * rng.randint(1, 2)
                if proper and Q <= top:
                    j = rng.randrange(ring.n)
                    m[j] = max(m[j], Q)
                if sum(m) <= polyring.MAX_TOTAL_DEGREE:
                    terms[tuple(m)] = 1
            gens.append(ring.poly(terms))
        return gens

    def _cases(self):
        rng = random.Random(2)
        for s in (1, 2, 3):
            for order in ("lex", "grevlex", "elim"):
                for n in range(1, 5):
                    ring = Ring(p=2, var_names=("x", "y", "z", "w")[:n], s=s, order=order)
                    for e in range(1, 26):
                        Q = ring.q ** min(e, FROBENIUS_LEVEL_CAP)
                        for _ in range(2):
                            yield ring, self._ideal(rng, ring, Q), e

    def test_matches_a_plain_dict_split(self):
        seen = {"unit": 0, "proper": 0, "shared": 0, "single": 0, "short": 0, "long": 0}
        widths = set()
        for ring, gens, e in self._cases():
            Q = ring.q ** min(e, FROBENIUS_LEVEL_CAP)
            widths.add(Q.bit_length() - 1)
            got = _root_gens(ring, gens, e)
            want = _plain_split([dict(g.terms()) for g in gens], Q)
            if want is None:
                assert got == (ring.one,)
                seen["unit"] += 1
                continue
            assert [dict(g.terms()) for g in got] == want
            for g in got:
                if len(g) == 1:
                    assert g.leading_monomial() == next(iter(dict(g.terms())))
            seen["proper"] += 1
            for g in gens:
                rems = {tuple(b % Q for b in m) for m, _ in g.terms()}
                seen["shared"] += len(rems) < len(g)
                kind = "single" if len(g) == 1 else "short" if len(g) < _COLUMNAR_TERMS else "long"
                seen[kind] += 1
        assert min(seen.values()) >= 40, seen
        assert {19, 20, 32, 33, 60} <= widths

    def test_from_width_20_every_floor_is_0_and_no_mask_is_built(self, monkeypatch):
        # every exponent is below 2**20, so each nonzero generator gives (1)
        def refuse(self, t):
            raise AssertionError(f"a mask was built for t = {t}")

        monkeypatch.setattr(polyring.Codec, "_split_masks", refuse)
        for s, e in ((1, 20), (1, 10**6), (2, 10), (3, 7), (7, 3)):
            ring = Ring(p=2, var_names=("x", "y"), s=s)
            x, y = ring.gens
            big = x ** (2**19 + 1) * y ** (2**18 + 1) + x
            assert _root_gens(ring, (ring.zero, big, x), e) == (ring.one,)
            assert _root_gens(ring, (ring.zero,), e) == ()
            assert ideal_root(Ideal(ring, (y**3,)), e).is_unit()

    def test_no_term_is_decoded_or_encoded(self, monkeypatch):
        # at p = 2 a root never turns a key into exponents, nor exponents
        # into a key, one at a time or by columns
        cases = [case for i, case in enumerate(self._cases()) if i % 7 == 0]
        want = [
            _plain_split([dict(g.terms()) for g in gens], ring.q ** min(e, FROBENIUS_LEVEL_CAP))
            for ring, gens, e in cases
        ]

        def refuse(self, *args):
            raise AssertionError("a term was decoded or encoded")

        for name in ("decode", "encode", "columns"):
            monkeypatch.setattr(polyring.Codec, name, refuse)
        got = [_root_gens(ring, gens, e) for ring, gens, e in cases]
        monkeypatch.undo()
        for (ring, _, _), out, parts in zip(cases, got, want):
            unit = [{(0,) * ring.n: 1}]
            assert [dict(g.terms()) for g in out] == (unit if parts is None else parts)
        assert sum(parts is not None for parts in want) >= 40


class TestDegreeBound:
    """The unit root decided by the degree bound, against plain dicts.

    A term of floor 0 (every exponent below Q) is its own remainder, and
    any other term of that remainder has degree at least its own plus Q.
    So a term of floor 0 above deg(g) - Q is a constant component, and
    the root is (1) before any term is decoded (odd p) or any remainder
    or floor key is computed (p = 2).  A lone term of floor 0 at or below
    that degree is left to ``_components``, which finds its constant; one
    that shares its remainder gives no constant.
    """

    RINGS = [
        (p, s, order) for p in (2, 3, 5) for s in (1, 2) for order in ("grevlex", "lex", "elim")
    ]

    @staticmethod
    def _high(rng, n, Q, lo, hi):
        # a term of degree in [lo, hi] (lo >= Q) with some exponent at least Q
        d = rng.randint(lo, hi)
        m = [0] * n
        j = rng.randrange(n)
        m[j] = rng.randint(Q, d)
        cuts = sorted(rng.randint(0, d - m[j]) for _ in range(n - 1))
        for i, part in enumerate(b - a for a, b in zip([0] + cuts, cuts + [d - m[j]])):
            m[i] += part
        return tuple(m)

    @staticmethod
    def _shared(rng, n, Q, top):
        # a term of floor 0 and degree at most top - Q, with a partner of
        # the same remainder and degree at most top
        budget = max(0, top - Q)
        c = []
        for _ in range(n):
            c.append(rng.randint(0, min(Q - 1, budget)))
            budget -= c[-1]
        rng.shuffle(c)
        partner = list(c)
        partner[rng.randrange(n)] += Q
        return [tuple(c), tuple(partner)]

    def _generator(self, rng, ring, Q, kind):
        # the exponents of one generator of the given kind
        n, odd = ring.n, ring.p > 2
        size = rng.randint(_COLUMNAR_TERMS, 20) if odd else rng.randint(2, 20)
        room = polyring.MAX_TOTAL_DEGREE - Q
        if room < 2 * n:
            # no term of degree Q fits the guard, so every floor is 0, and
            # deg(g) < Q decides the first term
            top = min(Q - 1, 40)
            terms = set()
            while len(terms) < size:
                terms.add(tuple(rng.randint(0, top) for _ in range(n)))
            return terms
        cap = min(Q - 1, room // (2 * n))
        a = tuple(rng.randint(min(Q // 2, cap) if odd else 0, cap) for _ in range(n))
        if not any(a):
            a = (cap,) + a[1:]
        terms = {a}
        if kind == "fires":
            # every other term at degree below |a| + Q
            lo, hi = Q, sum(a) + Q - 1
        else:
            # a term at degree |a| + Q or more, so the bound decides nothing
            hi = sum(a) + Q + rng.randint(0, min(2 * Q, room - sum(a)))
            terms.add(self._high(rng, n, Q, hi, hi))
            lo = Q
        if kind == "proper":
            terms.add(tuple(b + Q * (i == 0) for i, b in enumerate(a)))
        for _ in range(500):
            if len(terms) >= size:
                break
            if rng.random() < 0.2 and hi - Q >= 0:
                pair = self._shared(rng, n, Q, hi)
                if sum(pair[0]) + Q <= hi or kind != "fires":
                    terms.update(pair)
                continue
            m = self._high(rng, n, Q, lo, hi)
            if kind == "lone" and tuple(b % Q for b in m) == a:
                continue
            terms.add(m)
        if kind == "lone":
            # a stays alone in its remainder class
            terms = {m for m in terms if m == a or tuple(b % Q for b in m) != a}
        return terms

    def _cases(self):
        rng = random.Random(281)
        for p, s, order in self.RINGS:
            for kind in ("fires", "lone", "proper"):
                for i in range(3):
                    n = rng.choice((2, 3)) if p == 2 else 3
                    ring = Ring(p=p, var_names=("x", "y", "z")[:n], s=s, order=order)
                    e = 1 + (i == 2 and p ** (2 * s) <= 25)
                    yield kind, ring, e, self._generator(rng, ring, ring.q**e, kind)
        # every floor is 0 from Q >= 2**31 on at odd p, and t = 19 at p = 2
        # is the widest split that still masks
        for p, s, e, order in ((3, 1, 20, "grevlex"), (3, 2, 10, "lex"), (5, 2, 7, "elim"),
                               (5, 1, 25, "lex"), (2, 1, 19, "grevlex"), (2, 1, 19, "elim")):
            ring = Ring(p=p, var_names=("x", "y"), s=s, order=order)
            Q = ring.q ** min(e, FROBENIUS_LEVEL_CAP)
            yield "fires", ring, e, self._generator(rng, ring, Q, "fires")
            if Q < 2**20:
                for kind in ("lone", "proper"):
                    yield kind, ring, e, self._generator(rng, ring, Q, kind)

    def _built(self):
        rng = random.Random(283)
        for kind, ring, e, exps in self._cases():
            g = ring.poly({m: rng.randrange(1, ring.p) for m in sorted(exps)})
            Q = ring.q ** min(e, FROBENIUS_LEVEL_CAP)
            want = _plain_split([dict(g.terms())], Q)
            yield kind, ring, e, Q, g, want

    def test_the_bound_decides_exactly_what_the_plain_split_says(self, monkeypatch):
        seen = {"fires": 0, "lone": 0, "proper": 0}
        huge = wide = 0
        for kind, ring, e, Q, g, want in self._built():
            exps = [m for m, _ in g.terms()]
            low = [m for m in exps if max(m) < Q]
            fires = any(sum(m) > g.total_degree() - Q for m in low)
            assert fires == (kind == "fires"), (kind, ring, e)
            assert (want is None) == (kind != "proper"), (kind, ring, e)
            assert low
            if ring.p > 2:
                assert len(g) >= _COLUMNAR_TERMS
            got = _root_gens(ring, (g,), e)
            if want is None:
                assert got == (ring.one,)
            else:
                assert [dict(h.terms()) for h in got] == want
                for h in got:
                    if len(h) == 1:
                        assert h.leading_monomial() == next(iter(dict(h.terms())))
            parts = []
            with monkeypatch.context() as m:
                if kind == "fires":
                    def refuse(*args):
                        raise AssertionError("the degree bound should have decided")

                    if ring.p == 2:
                        m.setattr(polyring.Codec, "_ranks", refuse)
                        m.setattr(ring._codec, "_keys", refuse)
                    else:
                        for name in ("columns", "decode", "keys_of"):
                            m.setattr(polyring.Codec, name, refuse)
                else:
                    spied = frobroot._components

                    def spy(*args):
                        parts.append(spied(*args))
                        return parts[-1]

                    m.setattr(frobroot, "_components", spy)
                assert _root_gens(ring, (g,), e) == got
            if kind == "lone":
                assert parts == [None]
            elif kind == "proper":
                assert len(parts) == 1 and isinstance(parts[0], list)
            seen[kind] += 1
            huge += ring.p > 2 and Q >= polyring.WORD_LIMIT
            wide += ring.p == 2 and Q == 2**19
        assert min(seen.values()) >= 20, seen
        assert huge >= 3 and wide >= 2

    def test_a_long_odd_generator_reads_its_words_once(self, monkeypatch):
        calls = 0
        for kind, ring, e, Q, g, want in self._built():
            if ring.p == 2:
                continue
            codec = ring._codec
            words = codec._words

            def counted(keys, words=words):
                nonlocal calls
                calls += 1
                return words(keys)

            before = calls
            with monkeypatch.context() as m:
                m.setattr(codec, "_words", counted)
                _root_gens(ring, (g,), e)
            assert calls - before == 1, (kind, ring, e)
        assert calls >= 60

    @pytest.mark.parametrize("order", ["lex", "elim"])
    def test_outside_grevlex_deg_g_is_read_only_for_a_term_of_floor_0(self, order, monkeypatch):
        # deg(g) is the largest degree of any term here; a long generator
        # with no term of floor 0 is rooted without it, and one with such a
        # term reads it at most once
        rng = random.Random(f"deg-{order}")
        cases = []
        for p in (2, 3):
            ring = Ring(p=p, var_names=("x", "y", "z"), order=order)
            for e in (1, 2):
                Q = ring.q**e
                for _ in range(10):
                    terms, size = {}, rng.randint(_COLUMNAR_TERMS, 40)
                    while len(terms) < size:
                        m = [rng.randint(0, 3 * Q) for _ in range(3)]
                        j = rng.randrange(3)
                        m[j] = max(m[j], Q)
                        terms[tuple(m)] = rng.randrange(1, p)
                    low = tuple(rng.randrange(Q) for _ in range(3))
                    for floor_0, exps in ((False, terms), (True, {**terms, low: 1})):
                        g = ring.poly(exps)
                        cases.append((ring, e, g, floor_0, _plain_split([dict(g.terms())], Q)))
        reads = []
        total_degree = polyring.Poly.total_degree

        def spy(g):
            reads.append(g)
            return total_degree(g)

        monkeypatch.setattr(polyring.Poly, "total_degree", spy)
        read = 0
        for ring, e, g, floor_0, want in cases:
            reads.clear()
            got = _root_gens(ring, (g,), e)
            assert len(reads) <= floor_0 and all(r is g for r in reads), (ring, e, floor_0)
            read += len(reads)
            if want is None:
                assert got == (ring.one,)
            else:
                assert [dict(h.terms()) for h in got] == want
        assert read >= 20 and sum(want is None for *_, want in cases) >= 10
