"""Ring construction, exact arithmetic, Frobenius powers, parsing."""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsing.polyring as polyring
from fsing import (
    DomainError,
    Ideal,
    ParseError,
    Poly,
    ResourceError,
    Ring,
    RingMismatchError,
)

R2 = Ring(p=2, var_names=("x", "y"))
R3 = Ring(p=3, var_names=("x",))
R5 = Ring(p=5, var_names=("x", "y", "z"))


class TestRingConstruction:
    def test_basic_properties(self):
        assert R2.n == 2 and R2.q == 2
        ring = Ring(p=3, var_names=("x",), s=2)
        assert ring.q == 9

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100])
    def test_rejects_composite_characteristic(self, p):
        with pytest.raises(DomainError):
            Ring(p=p, var_names=("x",))

    @pytest.mark.parametrize(
        "p",
        [
            # strong pseudoprimes to the twelve Miller-Rabin bases 2..37
            318665857834031151167461,  # 399165290221 * 798330580441
            3317044064679887385961981,  # 1287836182261 * 2575672364521
        ],
    )
    def test_refuses_characteristics_the_primality_test_cannot_certify(self, p):
        with pytest.raises(DomainError):
            Ring(p=p, var_names=("x",))

    @pytest.mark.parametrize(
        "p", [2**61 - 1, 318665857834031151167441]  # the last prime below the bound
    )
    def test_accepts_large_primes(self, p):
        x = Ring(p=p, var_names=("x",)).gens[0]
        assert str(x**2 * (p - 1) + x**2) == "0"

    def test_rejects_bad_variables(self):
        with pytest.raises(DomainError):
            Ring(p=2, var_names=())
        with pytest.raises(DomainError):
            Ring(p=2, var_names=("x", "x"))
        with pytest.raises(DomainError):
            Ring(p=2, var_names=("2x",))

    def test_rejects_bad_step_and_order(self):
        with pytest.raises(DomainError):
            Ring(p=2, var_names=("x",), s=0)
        with pytest.raises(DomainError):
            Ring(p=2, var_names=("x",), order="degrevlex")

    @pytest.mark.parametrize("kwargs", [{"p": 7.0}, {"p": "7"}, {"p": 7, "s": 1.5}])
    def test_rejects_non_integer_characteristic_and_step(self, kwargs):
        with pytest.raises(DomainError):
            Ring(var_names=("x",), **kwargs)

    def test_value_equality(self):
        assert Ring(p=2, var_names=("x", "y")) == R2
        assert Ring(p=3, var_names=("x", "y")) != R2


class TestArithmetic:
    def test_coefficients_normalize_into_prime_field(self):
        x, y = R2.gens
        assert (x + x).is_zero()
        assert str(3 * x) == "x"
        a = R3.gens[0]
        assert str(2 * a + 2 * a) == "x"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: R2.poly({(1.5, 0): 1}),
            lambda: R2.poly({(0.5, 0.5): 1}),
            lambda: R2.poly({(1, 2): 1.5}),
            lambda: R2.monomial((1, 2.0)),
            lambda: R2.monomial((1, 2), 1.5),
            lambda: R2.constant(1.0),
        ],
    )
    def test_non_integer_exponents_and_coefficients_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: R2(1.5),
            lambda: R2(None),
            lambda: R2.gens[0] + 1.5,
            lambda: 1.5 + R2.gens[0],
            lambda: R2.gens[0] * 1.5,
            lambda: R2.gens[0] ** 1.5,
        ],
        ids=["ring_call_float", "ring_call_none", "add", "radd", "mul", "pow"],
    )
    def test_non_polynomial_operands_are_domain_errors(self, build):
        with pytest.raises(DomainError):
            build()

    def test_product_modulo_three(self):
        a = R3.gens[0]
        assert (a + 1) * (a + 2) == a**2 + 2

    def test_char_two_square_is_frobenius(self):
        x, y = R2.gens
        assert (x + y) ** 2 == x**2 + y**2

    def test_subtraction_and_negation(self):
        x, y = R2.gens
        assert x - y == x + y
        a = R3.gens[0]
        assert -(a + 1) == 2 * a + 2

    def test_zero_and_one(self):
        assert R2.zero.is_zero()
        assert R2.one.is_constant()
        x, _ = R2.gens
        assert x * R2.zero == R2.zero
        assert x * R2.one == x

    def test_power_zero_and_negative(self):
        x, _ = R2.gens
        assert x**0 == R2.one
        assert R2.zero**0 == R2.one
        assert R2.zero**5 == R2.zero
        with pytest.raises(DomainError):
            x ** (-1)

    @pytest.mark.parametrize("p, s", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_powers_start_at_their_first_factor(self, p, s, monkeypatch):
        # each power is built from its own factors: no product has the
        # constant one as an operand, f**1 is f itself, and f**m equals m - 1
        # plain products
        ring = Ring(p=p, var_names=("x", "y"), s=s)
        x, y = ring.gens
        f = x * y + x + 1
        expected = [ring.one, f]
        for _ in range(3 * ring.q - 1):
            expected.append(expected[-1] * f)
        products = []
        mul = Poly.__mul__

        def spy(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", spy)
        assert f**1 is f
        for m, power in enumerate(expected):
            assert f**m == power
        assert products
        assert not [pair for pair in products if ring.one in pair]

    def test_cross_ring_arithmetic_rejected(self):
        x, _ = R2.gens
        a = R3.gens[0]
        with pytest.raises(RingMismatchError):
            x + a

    def test_total_degree(self):
        x, y = R2.gens
        assert (x**2 * y + y).total_degree() == 3
        assert R2.zero.total_degree() == -1

    def test_degree_guard_trips(self, monkeypatch):
        monkeypatch.setattr(polyring, "MAX_TOTAL_DEGREE", 10)
        x, _ = R2.gens
        with pytest.raises(ResourceError):
            (x**5) * (x**6)
        with pytest.raises(ResourceError):
            x**11
        with pytest.raises(ResourceError):
            (x**6).frobenius_power(1)


class TestFrobenius:
    def test_scales_exponents(self):
        x, y = R2.gens
        assert (x + y).frobenius_power(1) == x**2 + y**2
        assert (x**3 * y**2).frobenius_power(2) == x**12 * y**8

    @pytest.mark.parametrize("e", [1.5, 1.0])
    def test_non_integer_level_rejected(self, e):
        x, _ = R2.gens
        with pytest.raises(DomainError):
            x.frobenius_power(e)

    def test_level_zero_is_identity(self):
        x, y = R2.gens
        f = x**2 + x * y
        assert f.frobenius_power(0) == f

    def test_respects_step(self):
        ring = Ring(p=2, var_names=("x",), s=2)
        (x,) = ring.gens
        assert (x + 1).frobenius_power(1) == x**4 + 1

    def test_a_huge_level_is_refused_without_forming_q_to_the_e(self):
        # q**(10**12) has about 4.8 * 10**11 digits; only the capped
        # power is formed, so the refusal is immediate
        (x,) = R3.gens
        with pytest.raises(ResourceError, match="degree guard"):
            (x + 1).frobenius_power(10**12)
        ideal = Ideal(R3, (x**2 + x, x**3))
        assert ideal.groebner()  # the cached basis is bracketed too
        with pytest.raises(ResourceError, match="degree guard"):
            ideal.bracket_power(10**12)

    def test_the_last_level_inside_the_guard(self):
        ring = Ring(p=2, var_names=("x",))
        (x,) = ring.gens
        assert polyring.FROBENIUS_LEVEL_CAP == 20
        assert x.frobenius_power(19) == ring.monomial((2**19,))
        with pytest.raises(ResourceError):
            x.frobenius_power(20)

    @pytest.mark.parametrize("c", [0, 1, 2])
    def test_a_constant_at_a_huge_level_is_itself(self, c):
        f = R3.constant(c)
        assert f.frobenius_power(10**12) == f
        assert Ideal(R3, (f,)).bracket_power(10**12) == Ideal(R3, (f,))

    @pytest.mark.parametrize("ring", [R2, R3, R5])
    def test_equals_repeated_multiplication(self, ring):
        # oracle: literal q**e-fold products, no exponent tricks
        rng = random.Random(7)
        for _ in range(25):
            f = _rand(rng, ring)
            for e in (1, 2):
                q_e = ring.q**e
                expected = ring.one
                for _ in range(q_e):
                    expected = expected * f
                assert f.frobenius_power(e) == expected

    @pytest.mark.parametrize("ring", [R2, R3, R5])
    def test_multiplicative(self, ring):
        rng = random.Random(11)
        for _ in range(40):
            f, g = _rand(rng, ring), _rand(rng, ring)
            assert (f * g).frobenius_power(1) == f.frobenius_power(
                1
            ) * g.frobenius_power(1)

    def test_pow_matches_naive_products(self):
        rng = random.Random(13)
        for ring in (R2, R3):
            for _ in range(15):
                f = _rand(rng, ring)
                for m in (3, 5, 9):
                    expected = ring.one
                    for _ in range(m):
                        expected = expected * f
                    assert f**m == expected


def _rand(rng: random.Random, ring: Ring) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        m = tuple(rng.randint(0, 3) for _ in range(ring.n))
        terms[m] = rng.randint(1, ring.p - 1) if ring.p > 2 else 1
    return ring.poly(terms)


def _polys(ring: Ring):
    monomial = st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=ring.n,
            max_size=ring.n,
        ),
        st.integers(min_value=0, max_value=ring.p - 1),
    )
    return st.lists(monomial, max_size=4).map(
        lambda pairs: ring.poly({tuple(m): c for m, c in pairs})
    )


@settings(max_examples=60, deadline=None)
@given(f=_polys(R2), g=_polys(R2), h=_polys(R2))
def test_ring_laws_char_two(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(f=_polys(R5), g=_polys(R5))
def test_frobenius_additive_char_five(f, g):
    assert (f + g).frobenius_power(1) == f.frobenius_power(1) + g.frobenius_power(1)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", "0"),
            ("1", "1"),
            ("x", "x"),
            ("x^3*y^2", "x^3*y^2"),
            ("x^2 + x*y", "x^2 + x*y"),
            ("(x + y)^2", "x^2 + y^2"),
            ("x - y", "x + y"),
            ("-x", "x"),
            ("3*x", "x"),
            ("2", "0"),
        ],
    )
    def test_parse_char_two(self, text, expected):
        assert str(R2(text)) == expected

    def test_parse_coefficients_mod_three(self):
        assert str(R3("2*x + 2*x")) == "x"
        assert str(R3("x - 1")) == "x + 2"

    @pytest.mark.parametrize(
        "text",
        [
            "2x", "x y", "x^", "x^-2", "x*", "(x", "x)", "", "  ", "x?y", "z", "x^y",
            # number literals are ASCII digits only
            "x^\u0663", "x^\uff13", "\u0663*x",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            R2(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("- -x", "(found '-' at position 1)"),
            (" x ?", "unexpected character '?' at position 2"),
            ("x^\u0663", "unexpected character '\u0663' at position 2"),
            ("\u0663*x", "unexpected character '\u0663' at position 0"),
        ],
    )
    def test_parse_error_positions(self, text, message):
        with pytest.raises(ParseError) as caught:
            R3(text)
        assert message in str(caught.value)

    def test_a_zero_factor_absorbs_the_factors_after_it(self):
        # a product is zero before its degree guard, and products run left
        # to right, so only the factors before the zero are guarded
        assert R2("0*x^600000*x^600000") == R2.zero
        with pytest.raises(ResourceError):
            R2("x^600000*x^600000*0")

    def test_the_first_failure_from_the_left_wins(self):
        with pytest.raises(ResourceError):
            R2("x^2000000*foo")
        with pytest.raises(ParseError, match="unknown variable 'foo'"):
            R2("foo*x^2000000")

    def test_constant_powers_and_guarded_factors_in_f3(self):
        assert R3("2^1000000000") == R3.one
        # the literal 3 is zero, so it absorbs the product unguarded
        assert R3("3*x^600000*x^600000") == R3.zero
        # the factor x^2000000 is guarded although the coefficient 3 is 0
        with pytest.raises(ResourceError):
            R3("3*x^2000000")

    @pytest.mark.parametrize("text", ["0^0", "(0)^0", "(x+y)^0", "x^00"])
    def test_a_zeroth_power_is_one(self, text):
        assert R2(text) == R2.one

    def test_parenthesized_powers_are_guarded(self):
        with pytest.raises(ResourceError):
            R2("(x)^1000001")

    def test_exponents_may_have_leading_zeros(self):
        assert R2("x^01") == R2.gens[0]
        assert R2("x^007*y^0010") == R2.monomial((7, 10))

    def test_parenthesis_free_terms_need_no_poly_arithmetic(self, monkeypatch):
        ring = Ring(p=7, var_names=("x", "y", "z"))
        rng = random.Random(23)
        parts, expected = [], {}
        for i in range(20):
            exps = (i % 5, i // 5, rng.randint(0, 3))
            c = rng.randint(1, 20)
            factors = [str(c)] + [
                f"{v}^{e}" for v, e in zip(ring.var_names, exps) if e
            ]
            # a repeated variable: x^a*x becomes x^(a+1)
            if exps[0]:
                factors[1] = "x^" + str(exps[0] - 1) + "*x"
            parts.append(("- " if i % 3 == 1 else "+ ") + "*".join(factors))
            expected[exps] = expected.get(exps, 0) + (-c if i % 3 == 1 else c)
        text = " ".join(parts)

        class Reached(Exception):
            pass

        def refuse(*args):
            raise Reached

        for name in ("__mul__", "__pow__", "__add__", "__sub__", "__neg__"):
            monkeypatch.setattr(Poly, name, refuse)
        assert dict(ring(text).terms()) == dict(ring.poly(expected).terms())
        for text in ("(x + y)^2", "x*(y + z)", "(x + y)*z"):
            with pytest.raises(Reached):
                ring(text)

    def test_huge_exponent_is_resource_error(self):
        with pytest.raises(ResourceError):
            R2("x^10000000")

    def test_deep_nesting_is_a_parse_error(self):
        assert R2("(" * 200 + "x" + ")" * 200) == R2.gens[0]
        with pytest.raises(ParseError):
            R2("(" * 250 + "x" + ")" * 250)

    def test_overlong_integer_literal_is_resource_error(self):
        with pytest.raises(ResourceError):
            R2("x^" + "9" * 5000)

    @pytest.mark.parametrize("ring", [R2, R3, R5])
    def test_round_trip(self, ring):
        rng = random.Random(5)
        for _ in range(50):
            f = _rand(rng, ring)
            assert ring(str(f)) == f

    def test_a_parsed_ring_is_freed_without_the_collector(self):
        # the parser reads the variables' keys off the ring's codec, and
        # nothing a ring caches refers back to it, so a ring that has parsed
        # text needs no cycle collection to be freed
        gc.disable()
        try:
            probe = Ring(p=3, var_names=("x", "y"))
            assert str(probe("x^2*y + (x + y)^3")) == "x^3 + x^2*y + y^3"
            assert len(probe.gens) == 2 and probe.monomial_key()((1, 1)) > 0
            alive = weakref.ref(probe)
            del probe
            assert alive() is None
        finally:
            gc.enable()
        ring = Ring(p=3, var_names=("x", "y"))
        cases = {
            "x^2*y + 2*x": "x^2*y + 2*x",
            "(x + y)^3": "x^3 + y^3",
            "x*x*y - y": "x^2*y + 2*y",
        }
        for _ in range(2):
            assert {text: str(ring(text)) for text in cases} == cases
        assert ring.gens == (ring.monomial((1, 0)), ring.monomial((0, 1)))
        assert [str(g) for g in ring.gens] == ["x", "y"]

    def test_accepts_int_and_poly(self):
        assert R2(1) == R2.one
        x, _ = R2.gens
        assert R2(x) == x
        with pytest.raises(RingMismatchError):
            R2(R3.gens[0])


class TestOrders:
    def test_grevlex_leading_monomial(self):
        x, y = R2.gens
        assert (x**2 + x * y + y**2).leading_monomial() == (2, 0)
        ring = Ring(p=2, var_names=("x", "y", "z"))
        x, y, z = ring.gens
        # same degree: grevlex prefers the one less divisible by the last variable
        assert (x * z + y**2).leading_monomial() == (0, 2, 0)

    def test_lex_leading_monomial(self):
        ring = Ring(p=2, var_names=("x", "y"), order="lex")
        x, y = ring.gens
        assert (x + y**5).leading_monomial() == (1, 0)

    def test_elim_order_prefers_first_variable(self):
        ring = Ring(p=2, var_names=("t", "x"), order="elim")
        t, x = ring.gens
        assert (t + x**9).leading_monomial() == (1, 0)

    def test_term_iteration_is_descending(self):
        x, y = R2.gens
        f = x**2 + x * y + y**3
        monomials = [m for m, _ in f.terms()]
        key = R2.monomial_key()
        assert monomials == sorted(monomials, key=key, reverse=True)
