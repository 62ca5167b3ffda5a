"""Reduced bases, membership, equality, intersection, quotients."""

from __future__ import annotations

import ast
import contextlib
import itertools
import pathlib
import random
import threading
import time

import pytest

import fsing.groebner as groebner
import fsing.polyring as polyring
from fsing import (
    DomainError,
    Ideal,
    Poly,
    ResourceError,
    Ring,
    RingMismatchError,
    buchberger,
    normal_form,
    poly_division,
)
from fsing.oracle import express_in_ideal

from conftest import rand_ideal, rand_monomial, rand_poly

R2 = Ring(p=2, var_names=("x", "y"))
R3 = Ring(p=3, var_names=("x", "y"))
R5 = Ring(p=5, var_names=("x", "y"))


@contextlib.contextmanager
def spair_budget(n):
    token = groebner.MAX_SPAIRS.set(n)
    try:
        yield
    finally:
        groebner.MAX_SPAIRS.reset(token)


class TestDivision:
    def test_certified_decomposition(self):
        rng = random.Random(23)
        for ring in (R2, R3, R5):
            for _ in range(30):
                f = rand_poly(rng, ring, 4, 4)
                divisors = [
                    rand_poly(rng, ring, 3, 3, nonzero=True) for _ in range(2)
                ]
                quots, rem = poly_division(f, divisors)
                recombined = rem
                for q, d in zip(quots, divisors):
                    recombined = recombined + q * d
                assert recombined == f
                lms = [d.leading_monomial() for d in divisors]
                for m, _ in rem.terms():
                    assert not any(
                        all(a <= b for a, b in zip(lm, m)) for lm in lms
                    )

    @pytest.mark.parametrize("order", ["lex", "elim"])
    def test_certified_decomposition_in_other_orders(self, order):
        rng = random.Random(29)
        ring = Ring(p=5, var_names=("t", "x", "y"), order=order)
        key = ring.monomial_key()
        for _ in range(40):
            f = rand_poly(rng, ring, 5, 4)
            divisors = [rand_poly(rng, ring, 3, 3, nonzero=True) for _ in range(3)]
            quots, rem = poly_division(f, divisors)
            assert sum((q * d for q, d in zip(quots, divisors)), rem) == f
            top = key(f.leading_monomial()) if f else 0
            for q, d in zip(quots, divisors):
                if q:
                    assert key((q * d).leading_monomial()) <= top

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    def test_results_carry_their_leading_monomials(self, order):
        # division pops terms in decreasing order, so it knows each leading
        # monomial without a search; monic() scales and keeps it
        rng = random.Random(31)
        ring = Ring(p=5, var_names=("t", "x", "y"), order=order)
        key = ring.monomial_key()
        for _ in range(40):
            f = rand_poly(rng, ring, 5, 4)
            divisors = [rand_poly(rng, ring, 3, 3, nonzero=True) for _ in range(2)]
            quots, rem = poly_division(f, divisors)
            for h in quots + [rem]:
                if h:
                    assert h.leading_monomial() == max(dict(h.terms()), key=key)
                else:
                    with pytest.raises(DomainError):
                        h.leading_monomial()
            g = rand_poly(rng, ring, 5, 4, nonzero=True)
            lc = g.leading_coeff()
            monic = g.monic()
            assert dict(monic.terms()).keys() == dict(g.terms()).keys()
            assert monic.leading_monomial() == max(dict(g.terms()), key=key)
            assert monic.leading_coeff() == 1
            assert monic * lc == g

    def test_a_key_bound_keeps_the_terms_at_or_above_it(self):
        x, y = R5.gens
        key = R5.monomial_key()
        f = x**2 + x * y + y
        # x may reduce x*y but not x^2, whose key is the bound itself
        quots, rem = poly_division(f, [x], below=[key((2, 0))])
        assert rem == x**2 + y and quots[0] * x + rem == f
        assert poly_division(f, [x], below=[key((2, 0)) + 1])[1] == y
        with pytest.raises(DomainError, match="one key bound per divisor"):
            poly_division(f, [x, y], below=[0])

    def test_divide_by_zero_rejected(self):
        x, _ = R2.gens
        with pytest.raises(DomainError):
            poly_division(x, [R2.zero])

    def test_divisor_record_is_cached(self):
        x, y = R5.gens
        d = x * y + 2 * y + 1
        record = d.reducer()
        normal_form(x**2 * y, [d])
        assert d.reducer() is record
        # (leading key, leading word, inverse leading coefficient, tail
        # degree excess, tail terms as (key, coefficient))
        lead_key, lead_word, lc_inv, excess, tail = record
        key, codec = R5.monomial_key(), R5._codec
        assert lead_key == key((1, 1)) and codec.decode(lead_key) == (1, 1)
        assert lead_word == codec.word(lead_key)
        assert codec.divides(lead_word, codec.word(key((2, 1))))
        assert not codec.divides(lead_word, codec.word(key((2, 0))))
        assert lc_inv == 1 and excess == -1
        assert sorted(tail) == sorted([(key((0, 1)), 2), (key((0, 0)), 1)])

    @staticmethod
    def _reference_record(g):
        # the divisor record term by term: the lead by key, its word packed
        # one exponent per 32-bit field (x_1 in the top field in lex, in the
        # bottom one otherwise), the excess from every tail term's degree
        # and the tail in dict order
        ring = g.ring
        key = ring.monomial_key()
        lead, lc = max(g.terms(), key=lambda t: key(t[0]))
        lk = key(lead)
        fields = reversed(lead) if ring.order == "lex" else lead
        word = sum(e << (32 * i) for i, e in enumerate(fields))
        tail = [(k, c) for k, c in g._terms.items() if k != lk]
        degrees = [sum(m) for m, _ in g.terms() if key(m) != lk]
        excess = max(degrees) - sum(lead) if degrees else 0
        return lk, word, pow(lc, -1, ring.p), excess, tail

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    @pytest.mark.parametrize("p", [2, 3, 32003])
    def test_divisor_records_match_a_per_term_reference(self, order, p):
        rng = random.Random(f"record-{order}-{p}")
        ring = Ring(p=p, var_names=("t", "x", "y"), order=order)
        t, x, y = ring.gens
        polys = [rand_poly(rng, ring, rng.randint(1, 8), 6, nonzero=True) for _ in range(60)]
        # a single term, a constant, and tails above and below the lead
        polys += [x**3 * y, ring.constant(p - 1), t + x**5 * y + 1, t**4 + x + y**2]
        above = below = 0
        for g in polys:
            record = g.reducer()
            assert tuple(record) == self._reference_record(g)
            above += record[3] > 0
            below += record[3] < 0
        # only lex and elim rank a term of higher degree below the lead
        assert (above > 0) == (order != "grevlex") and below > 0

    def test_the_fast_path_keeps_every_divisor_check(self):
        ring = Ring(p=5, var_names=("x", "y"))
        twin = Ring(p=5, var_names=("x", "y"))
        other = Ring(p=7, var_names=("x", "y"))
        x, y = ring.gens
        f = x**3 * y + x * y**2 + 1
        # a divisor of an equal ring that is another object is accepted
        d = twin("x*y + 2*y")
        d.reducer()
        assert twin is not ring and twin == ring
        assert poly_division(f, [d]) == poly_division(f, [x * y + 2 * y])
        stranger = other("x*y + 1")
        stranger.reducer()
        with pytest.raises(RingMismatchError):
            poly_division(f, [stranger])
        with pytest.raises(DomainError, match="a divisor must be of type Poly"):
            poly_division(f, [x, 3])
        cached = [x * y + 1, y**2 + x]
        for g in cached:
            g.reducer()
        with pytest.raises(DomainError, match="cannot divide by the zero polynomial"):
            poly_division(f, cached + [ring.zero])

    @pytest.mark.parametrize(
        "order, names", [("lex", ("x", "y")), ("elim", ("t", "x"))]
    )
    def test_reduction_respects_the_degree_guard(self, order, names):
        # x - y^N leads with x in both orders, so reducing x^2 would build
        # x * y^N, one degree above the guard
        ring = Ring(p=5, var_names=names, order=order)
        x, y = ring.gens
        big = y ** polyring.MAX_TOTAL_DEGREE
        with pytest.raises(ResourceError):
            normal_form(x**2, [x - big])
        with pytest.raises(ResourceError):
            poly_division(x**2, [x - big])
        # at the guard itself the reduction goes through
        assert normal_form(x, [x - big]) == big

    @pytest.mark.parametrize("order", ["lex", "elim"])
    def test_spoly_respects_the_degree_guard(self, order):
        ring = Ring(p=5, var_names=("x", "y"), order=order)
        x, y = ring.gens
        n = polyring.MAX_TOTAL_DEGREE
        f = x ** (n - 1) * y + y**n          # leads with x^(n-1) y
        g = x * y ** (n - 1) + y**2          # leads with x y^(n-1)
        # the S-polynomial would hold y^(n-2) * y^n
        with pytest.raises(ResourceError):
            groebner._spoly(f, g)
        with pytest.raises(ResourceError):
            buchberger([f, g], ring)

    def test_spoly_guard_looks_at_built_terms_only(self):
        # the lcm x^(n-1) y^(n-1) is above the guard, but it cancels and
        # the shifted tails stay far below it
        n = polyring.MAX_TOTAL_DEGREE
        x, y = R5.gens
        s = groebner._spoly(x ** (n - 1) * y + 1, x * y ** (n - 1) + 1)
        assert s == y ** (n - 2) - x ** (n - 2)
        assert buchberger([x ** (n - 1) * y, x * y ** (n - 1)], R5) == (
            x ** (n - 1) * y,
            x * y ** (n - 1),
        )


def reference_division(f, divisors, below=None):
    """Division in plain dicts of exponent tuples, one leading term at a time.

    The leading term of what is left is reduced by the first divisor, in
    order, whose leading monomial divides it and whose key bound, if any,
    lies above its key; otherwise it moves to the remainder.  Returns the
    quotients and the remainder as exponent -> coefficient dicts.
    """
    ring = f.ring
    p, key = ring.p, ring.monomial_key()
    left = dict(f.terms())
    divs = [dict(d.terms()) for d in divisors]
    leads = [max(d, key=key) for d in divs]
    quots: list[dict] = [{} for _ in divs]
    rem = {}
    while left:
        m = max(left, key=key)
        c = left.pop(m)
        for i, (d, lm) in enumerate(zip(divs, leads)):
            if all(a <= b for a, b in zip(lm, m)) and (below is None or key(m) < below[i]):
                shift = tuple(b - a for a, b in zip(lm, m))
                coef = c * pow(d[lm], p - 2, p) % p
                quots[i][shift] = coef
                for dm, dc in d.items():
                    if dm != lm:
                        t = tuple(a + b for a, b in zip(shift, dm))
                        v = (left.get(t, 0) - coef * dc) % p
                        if v:
                            left[t] = v
                        else:
                            left.pop(t, None)
                break
        else:
            rem[m] = c
    return quots, rem


class TestDivisionContract:
    """poly_division against a plain-dict division, term for term."""

    @staticmethod
    def _agree(f, divisors, below=None):
        quots, rem = poly_division(f, divisors, below=below)
        want_quots, want_rem = reference_division(f, divisors, below)
        assert [dict(q.terms()) for q in quots] == want_quots
        assert dict(rem.terms()) == want_rem
        if want_rem:
            key = f.ring.monomial_key()
            assert rem.leading_monomial() == max(want_rem, key=key)
        # the remainder's terms were received in decreasing order
        assert list(rem._terms) == sorted(rem._terms, reverse=True)
        return quots, rem

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    @pytest.mark.parametrize("p", [2, 3, 32003])
    def test_matches_a_plain_dict_division(self, order, p):
        rng = random.Random(f"{order}-{p}")
        ring = Ring(p=p, var_names=("t", "x", "y"), order=order)
        key = ring.monomial_key()
        below_floor = bounded = 0
        for _ in range(60):
            f = rand_poly(rng, ring, 12, 6)
            divisors = [
                rand_poly(rng, ring, 3, 4, nonzero=True)
                for _ in range(rng.randint(1, 4))
            ]
            floor = min(key(d.leading_monomial()) for d in divisors)
            below_floor += any(key(m) < floor for m, _ in f.terms())
            _, rem = self._agree(f, divisors)
            assert normal_form(f, divisors) == rem
            # bounds drawn from f's own keys, so some terms fall on each side
            keys = [key(m) for m, _ in f.terms()] or [0]
            below = [rng.choice(keys) + rng.randint(0, 1) for _ in divisors]
            bounded += self._agree(f, divisors, below)[1] != rem
        assert below_floor >= 20 and bounded >= 20

    def test_a_term_at_the_least_leading_key_is_reduced(self):
        ring = Ring(p=5, var_names=("x", "y", "z"))
        x, y, z = ring.gens
        divisors = [x**6 + z, x**5 + y]
        # x^5 is the least leading monomial and is reduced; x^4*y, the next
        # monomial of degree 5, is below it and stays
        quots, rem = self._agree(x**5 + x**4 * y + z**3, divisors)
        assert quots == [ring.zero, ring.one]
        assert rem == x**4 * y + z**3 - y
        quots, rem = self._agree(x**4 * y + z**3, divisors)
        assert quots == [ring.zero, ring.zero]
        assert rem == x**4 * y + z**3

    def test_no_divisors_leave_the_whole_polynomial(self):
        ring = Ring(p=7, var_names=("x", "y"), order="lex")
        f = ring("3*x^2*y + x*y^5 + y^7 + 2")
        quots, rem = self._agree(f, [])
        assert quots == [] and rem == f
        assert poly_division(ring.zero, []) == ([], ring.zero)

    def test_bounds_that_exclude_every_term_reduce_nothing(self):
        ring = Ring(p=3, var_names=("x", "y"))
        x, y = ring.gens
        f = x**3 + x * y + y + 1
        # every key is at least 0, the key of 1
        quots, rem = self._agree(f, [x, y], below=[0, 0])
        assert quots == [ring.zero, ring.zero] and rem == f

    def test_terms_below_every_leading_key_are_never_tested(self, monkeypatch):
        # divisibility tests decode each popped term's word; once the popped
        # key falls below x^5's, the least leading key, no word is decoded
        ring = Ring(p=5, var_names=("x", "y", "z"))
        key = ring.monomial_key()
        x, y, z = ring.gens
        divisors = [x**5 + y, x**6 + z**2]
        low = ring.poly({(i, j, k): 1 for i in range(3) for j in range(3) for k in range(3)})
        f = x**6 * y + x**5 + low
        floor = key((5, 0, 0))
        assert sum(key(m) < floor for m, _ in f.terms()) >= 20
        for d in divisors:
            d.reducer()
        codec = ring._codec
        seen = []
        real = codec.word

        def word(k):
            seen.append(k)
            return real(k)

        monkeypatch.setattr(codec, "word", word)
        self._agree(f, divisors)
        assert seen and min(seen) >= floor


class TestBuchberger:
    def test_monomial_redundancy_drops(self):
        x, _ = R2.gens
        assert buchberger([x**2, x], R2) == (x,)

    def test_linear_pair_char_two(self):
        x, y = R2.gens
        assert buchberger([x + y, x], R2) == (x, y)

    def test_zero_and_unit(self):
        x, _ = R2.gens
        assert buchberger([], R2) == ()
        assert buchberger([R2.zero], R2) == ()
        assert buchberger([x, R2.one + x], R2) == (R2.one,)

    def test_a_generator_reducing_to_a_unit_spends_no_pair_of_its_own(self):
        # generators join in increasing leading-monomial order: x*y + 1 and
        # x^2 + y spend one J-pair on y^2 - x, and then the third generator
        # reduces to 1 by the basis so far, with no pair of its own
        x, y = R3.gens
        gens = [x**2 + y, x * y + 1, x**2 + x * y + y + 2]
        with spair_budget(0), pytest.raises(ResourceError):
            buchberger(gens, R3)
        with spair_budget(1):
            assert buchberger(gens, R3) == (R3.one,)

    @pytest.mark.parametrize(
        "text,cap",
        [
            ("x*y + z^2; y*z + x^2; x*z + y^2 + 1", 4),
            ("x*y*z - 1; x^2 + y^2 + z^2; x + y + z", 0),
            ("x + y", 0),
        ],
    )
    def test_smallest_spair_caps_of_the_budget_systems(self, text, cap):
        # the benchmark's ``--budget-spairs 2`` and ``3`` jobs at p = 3
        # fail or succeed on exactly these counts
        ring = Ring(p=3, var_names=("x", "y", "z"))
        gens = [ring(t) for t in text.split(";")]
        if cap:
            with spair_budget(cap - 1), pytest.raises(ResourceError):
                buchberger(gens, ring)
        with spair_budget(cap):
            assert buchberger(gens, ring)

    def test_monomial_bases_spend_no_spairs(self):
        # an all-monomial basis forms no pairs, so even a cap of 0 suffices
        x, y = R2.gens
        with spair_budget(0):
            assert buchberger([x * y, x**2, y**3, x * y**2], R2) == (
                y**3,
                x**2,
                x * y,
            )

    def test_monomial_bases_need_no_division_or_spolys(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a monomial basis divided or built an S-polynomial")

        monkeypatch.setattr(groebner, "poly_division", refuse)
        monkeypatch.setattr(groebner, "_spoly", refuse)
        x, y = R3.gens
        gens = [2 * x**2 * y, R3.zero, x * y**3, 2 * x**3, x**2 * y, y**5]
        assert buchberger(gens, R3) == (y**5, x * y**3, x**3, x**2 * y)
        assert buchberger([x * y, R3.constant(2), y], R3) == (R3.one,)

    @staticmethod
    def _engine_basis(g, ring):
        # the signature engine's answer for one generator, from no basis
        grown, spent = groebner._g2v_step((), g, 0, 0)
        assert spent == 0
        return (ring.one,) if grown is None else groebner._interreduced(grown)

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    @pytest.mark.parametrize("p", [2, 3, 32003])
    def test_one_generator_is_its_own_monic_basis(self, order, p, monkeypatch):
        rng = random.Random(f"principal-{order}-{p}")
        ring = Ring(p=p, var_names=("t", "x", "y"), order=order)
        t, x, y = ring.gens
        gens = [ring.zero, ring.constant(p - 1), (p - 1) * x**2 * y, t + x**5 * y + 1]
        gens += [rand_poly(rng, ring, 6, 5) for _ in range(20)]
        want = [self._engine_basis(g, ring) for g in gens]
        assert want[0] == () and want[1] == (ring.one,) and want[2] == (x**2 * y,)

        def refuse(*args, **kwargs):
            raise AssertionError("a principal ideal went through the engine")

        monkeypatch.setattr(groebner, "_g2v_step", refuse)
        monkeypatch.setattr(groebner, "_monomial_basis", refuse)
        with spair_budget(0):
            for g, basis in zip(gens, want):
                if g:
                    assert buchberger([g], ring) == basis
                    assert buchberger(iter([g]), ring) == basis
        # the zero generator alone is no principal shortcut
        monkeypatch.undo()
        assert buchberger([ring.zero], ring) == ()

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    def test_interreduction_divides_by_the_smaller_leads_alone(self, order, monkeypatch):
        # a divisor of larger lead divides no term of an element, so each
        # element meets only the smaller leads, in list order, and one with
        # no smaller lead is kept undivided, in its own term order
        rng = random.Random(f"interreduce-{order}")
        ring = Ring(p=5, var_names=("x", "y", "z"), order=order)
        calls = []
        division = groebner.poly_division

        def spy(f, divisors, *args, **kwargs):
            calls.append((f, list(divisors)))
            return division(f, divisors, *args, **kwargs)

        sizes = set()
        kept = 0
        for _ in range(30):
            gens = [rand_poly(rng, ring, 4, 3, nonzero=True) for _ in range(rng.randint(1, 4))]
            reduced = buchberger(gens, ring)
            # spoil the tails with multiples of smaller leads: same leads,
            # same ideal, no longer reduced
            basis = list(reduced)
            for i, g in enumerate(basis):
                for d in reduced:
                    t = rand_monomial(rng, ring, 2)
                    if (t * d)._lead() < g._lead():
                        basis[i] = basis[i] + 2 * t * d
            rng.shuffle(basis)
            smaller = {id(g): [d for d in basis if d._lead() < g._lead()] for g in basis}
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(groebner, "poly_division", spy)
                got = groebner._interreduced(basis)
            assert got == reduced
            by_lead = {g._lead(): g for g in basis}
            for h in got:
                g = by_lead[h._lead()]
                if smaller[id(g)]:
                    # the normal form by the smaller leads, term order and all
                    want = groebner.normal_form(g, smaller[id(g)]).monic()
                else:
                    # undivided: the input's own term order
                    want = g.monic()
                    kept += len(basis) > 1
                assert list(h._terms.items()) == list(want._terms.items())
            expected_calls = [(g, smaller[id(g)]) for g in basis if smaller[id(g)]]
            assert [(f, [id(d) for d in ds]) for f, ds in calls] == [
                (f, [id(d) for d in ds]) for f, ds in expected_calls
            ]
            sizes.add(len(basis))
        assert kept >= 5
        assert {1, 2, 3} <= sizes and max(sizes) >= 4

    @pytest.mark.parametrize("cap", [-1, 1.5, "3"])
    def test_one_generator_still_reads_the_cap(self, cap):
        x, y = R2.gens
        for g in (x * y + y**2, x**2, R2.one):
            with spair_budget(cap), pytest.raises(DomainError, match="S-pair budget"):
                buchberger([g], R2)

    def test_textbook_pair(self):
        # classic: in F_5[x,y] grevlex, {x^2 + y, x*y + x} closes up with y^2 + y
        x, y = R5.gens
        gb = buchberger([x**2 + y, x * y + x], R5)
        ideal = Ideal(R5, (x**2 + y, x * y + x))
        assert ideal.contains(y**2 + y)
        assert set(gb) == {x**2 + y, x * y + x, y**2 + y}

    def test_budget_exhaustion(self):
        x, y = R2.gens
        with spair_budget(0), pytest.raises(ResourceError):
            buchberger([x * y + y**2, x**2], R2)

    @pytest.mark.parametrize("cap", [-1, 1.5, "3"])
    def test_a_cap_that_is_not_a_nonnegative_integer_is_refused(self, cap):
        x, y = R2.gens
        # refused where the cap is read: all-monomial bases, which spend
        # no S-pairs, included
        for gens in ([x * y + y**2, x**2], [x * y, y**3]):
            with spair_budget(cap), pytest.raises(DomainError, match="S-pair budget"):
                buchberger(gens, R2)

    def test_budget_holds_only_inside_its_context(self):
        x, y = R2.gens
        gens = [x * y + y**2, x**2]
        with spair_budget(0), pytest.raises(ResourceError) as info:
            buchberger(gens, R2)
        assert set(info.value.partial) == set(gens)
        assert set(buchberger(gens, R2)) == set(gens) | {y**3}

    def test_a_thread_keeps_its_own_budget(self):
        x, y = R2.gens
        gens = [x * y + y**2, x**2]
        capped, release = threading.Event(), threading.Event()
        seen = []

        def worker():
            groebner.MAX_SPAIRS.set(0)
            try:
                buchberger(gens, R2)
            except ResourceError:
                seen.append("exhausted")
            capped.set()
            release.wait(10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert capped.wait(10)
            assert groebner.MAX_SPAIRS.get() == 200_000
            assert len(buchberger(gens, R2)) == 3
        finally:
            release.set()
            thread.join()
        assert seen == ["exhausted"]

    def test_result_is_reduced(self):
        rng = random.Random(31)
        for ring in (R2, R3):
            for _ in range(40):
                ideal = rand_ideal(rng, ring, 3)
                gb = ideal.groebner()
                for i, g in enumerate(gb):
                    assert g.leading_coeff() == 1
                    others = [h for j, h in enumerate(gb) if j != i]
                    if others:
                        lms = [h.leading_monomial() for h in others]
                        for m, _ in g.terms():
                            assert not any(
                                all(a <= b for a, b in zip(lm, m)) for lm in lms
                            )

    def test_spoly_reduction_closure(self):
        # defining property: every S-pair of the basis reduces to zero
        rng = random.Random(37)
        for _ in range(25):
            ideal = rand_ideal(rng, R3, 3)
            gb = ideal.groebner()
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    s = groebner._spoly(gb[i], gb[j])
                    assert not normal_form(s, list(gb))


def counted_zero_remainders(monkeypatch):
    # one flag per division the engine makes: True when the remainder is zero
    zeros = []
    divide = groebner.poly_division

    def counted(*args, **kwargs):
        out = divide(*args, **kwargs)
        zeros.append(not out[1])
        return out

    monkeypatch.setattr(groebner, "poly_division", counted)
    return zeros


# Names of the pair loop the signature engine replaced: its admission
# closure, its pending-pair dict and its working-basis index list.
OLD_PAIR_LOOP = {"admit", "pairs", "current"}


def pair_loop_leftovers(source: str) -> set[str]:
    """Old pair-loop names defined or used in the body of ``buchberger``."""
    (engine,) = (
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "buchberger"
    )
    names = set()
    for node in ast.walk(engine):
        if isinstance(node, ast.FunctionDef) and node is not engine:
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names & OLD_PAIR_LOOP


CYCLIC_4 = (
    "a + b + c + d",
    "a*b + b*c + c*d + d*a",
    "a*b*c + b*c*d + c*d*a + d*a*b",
    "a*b*c*d - 1",
)


class TestSignatureEngine:
    def test_the_old_pair_loop_is_gone(self):
        source = pathlib.Path(groebner.__file__).read_text()
        assert pair_loop_leftovers(source) == set()

    @pytest.mark.parametrize(
        "source",
        [
            "def buchberger(gens, ring):\n    def admit(f):\n        return f",
            "def buchberger(gens, ring):\n    pairs = {}",
            "def buchberger(gens, ring):\n    current.append(0)",
        ],
    )
    def test_the_scan_finds_a_leftover(self, source):
        assert pair_loop_leftovers(source)

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    def test_fifty_variables_keep_integer_signatures(self, order):
        # order keys of degree >= 1 exceed every float here, so signature
        # data must stay integers: two binomials and a monomial form J-pairs
        # against a nonempty earlier basis
        ring = Ring(p=32003, var_names=tuple(f"x{i}" for i in range(50)), order=order)
        x = ring.gens
        gens = [x[0] * x[1] + x[2], x[0] ** 2 + x[3], x[4]]
        gb = buchberger(gens, ring)
        assert len(gb) > len(gens) and gb == Ideal(ring, gb).groebner()
        assert not any(normal_form(g, list(gb)) for g in gens)
        assert not any(normal_form(groebner._spoly(f, g), list(gb)) for f in gb for g in gb)

    def test_signatures_past_the_degree_guard_stay_exact(self, monkeypatch):
        # x -> x^c, y -> y^c is flat and keeps the order, so it carries the
        # reduced basis of an ideal to that of its image.  At c = 40000 every
        # term stays inside the degree guard, but the engine's signatures
        # pass it, and their words must still decide both criteria exactly.
        ring = Ring(p=5, var_names=("x", "y"))
        system = [{(2, 5): 2, (2, 4): 3}, {(6, 1): 3, (0, 2): 1, (1, 0): 3}]
        c = 40000
        seen: list[int] = []
        check = groebner._check_signature
        monkeypatch.setattr(groebner, "_check_signature", lambda d: (seen.append(d), check(d)))
        basis = buchberger([ring.poly(t) for t in system], ring)
        scaled = buchberger(
            [ring.poly({tuple(c * b for b in m): v for m, v in t.items()}) for t in system], ring
        )
        assert max(seen) > polyring.MAX_TOTAL_DEGREE
        assert [dict(g.terms()) for g in scaled] == [
            {tuple(c * b for b in m): v for m, v in g.terms()} for g in basis
        ]

    def test_a_signature_at_the_word_limit_is_refused(self):
        groebner._check_signature(polyring.WORD_LIMIT - 1)
        with pytest.raises(ResourceError, match="word limit"):
            groebner._check_signature(polyring.WORD_LIMIT)

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_a_budget_partial_still_generates_the_ideal(self, order):
        # every cap below the one cyclic-4 needs stops it: in the third
        # generator's step, while the last one still waits unchanged, or in
        # the fourth's.  The basis so far plus the generators not yet added
        # must still generate the ideal.
        ring = Ring(p=32003, var_names=("a", "b", "c", "d"), order=order)
        gens = [ring(t) for t in CYCLIC_4]
        ideal = Ideal(ring, gens)
        waiting = []
        for cap in itertools.count():
            with spair_budget(cap):
                try:
                    assert buchberger(gens, ring) == ideal.groebner()
                    break
                except ResourceError as exc:
                    partial = exc.partial
            assert Ideal(ring, partial) == ideal
            waiting.append(gens[-1] in partial)
        assert waiting[0] and not waiting[-1]

    def test_a_regular_sequence_reduces_nothing_to_zero(self, monkeypatch):
        # three generic quadrics in three variables: every J-pair that would
        # reduce to zero has a principal syzygy's signature
        ring = Ring(p=32003, var_names=("x", "y", "z"))
        rng = random.Random(19)
        quadrics = [m for m in itertools.product(range(3), repeat=3) if sum(m) == 2]
        gens = [
            ring.poly({m: rng.randrange(1, ring.p) for m in quadrics}) for _ in range(3)
        ]
        zeros = counted_zero_remainders(monkeypatch)
        gb = buchberger(gens, ring)
        assert len(gb) > 3 and zeros and not any(zeros)

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_cyclic_4_spends_few_zero_reductions(self, monkeypatch, order):
        # the pair-criteria Buchberger this engine replaced reduced 5
        # (grevlex) and 8 (lex) polynomials to zero here
        ring = Ring(p=32003, var_names=("a", "b", "c", "d"), order=order)
        zeros = counted_zero_remainders(monkeypatch)
        buchberger([ring(t) for t in CYCLIC_4], ring)
        assert sum(zeros) <= 1


def minimal_antichain(monomials):
    # the minimal elements under divisibility, from exponent tuples alone
    distinct = set(monomials)
    return {
        m
        for m in distinct
        if not any(d != m and all(a <= b for a, b in zip(d, m)) for d in distinct)
    }


def rand_monomial_gens(rng, ring):
    n = ring.n
    gens = []
    for _ in range(rng.randint(2, 7)):
        m = tuple(rng.randint(0, 3) for _ in range(n))
        if not any(m):
            m = (1,) + m[1:]
        gens.append(ring.monomial(m, rng.randrange(1, ring.p)))
    if rng.random() < 0.5:
        gens.append(ring.zero)
    if rng.random() < 0.5:
        gens.append(rng.choice(gens))
    if rng.random() < 0.5:
        shift = [rng.randint(0, 2) for _ in range(n)]
        gens.append(rng.choice(gens) * ring.monomial(shift, rng.randrange(1, ring.p)))
    if rng.random() < 0.1:
        gens.append(ring.constant(rng.randrange(1, ring.p)))
    rng.shuffle(gens)
    return gens


class TestMonomialBases:
    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_agrees_with_spairs_and_with_the_antichain(self, p, order):
        ring = Ring(p=p, var_names=("x", "y", "z"), order=order)
        rng = random.Random(1000 * p + len(order))
        for _ in range(40):
            gens = rand_monomial_gens(rng, ring)
            gb = buchberger(gens, ring)
            # a redundant two-term generator sends the same ideal through
            # the S-pair route
            nonzero = [g for g in gens if g]
            f, g = rng.sample(nonzero, 2)
            if f.leading_monomial() == g.leading_monomial():
                g = g * ring.gens[rng.randrange(ring.n)]
            assert buchberger(gens + [f + g], ring) == gb
            assert all(h.leading_coeff() == 1 and len(h) == 1 for h in gb)
            expected = minimal_antichain(m for h in nonzero for m, _ in h.terms())
            assert {h.leading_monomial() for h in gb} == expected


class TestMembership:
    def test_examples(self):
        x, y = R2.gens
        assert Ideal(R2, (x + y,)).contains(x**2 + y**2)
        assert not Ideal(R2, (x**2, y**2)).contains(x * y)
        assert Ideal(R2, ()).contains(R2.zero)
        assert not Ideal(R2, ()).contains(x)

    def test_agrees_with_linear_algebra_oracle(self):
        rng = random.Random(41)
        hits = misses = 0
        for ring in (R2, R3):
            for _ in range(40):
                gens = [rand_poly(rng, ring, 2, 2, nonzero=True) for _ in range(2)]
                ideal = Ideal(ring, gens)
                f = rand_poly(rng, ring, 3, 3)
                # degree bound: certificates of degree <= 4 cover candidates
                # of degree <= 3 against generators of degree >= 1, with room
                certificate = express_in_ideal(f, gens, 4)
                member = ideal.contains(f)
                if certificate is not None:
                    recombined = ring.zero
                    for q, g in zip(certificate, gens):
                        recombined = recombined + q * g
                    assert recombined == f
                    assert member
                    hits += 1
                elif member:
                    # membership with cofactors beyond the oracle bound is
                    # possible in principle; re-check at a higher bound
                    assert express_in_ideal(f, gens, 8) is not None
                    hits += 1
                else:
                    misses += 1
        assert hits and misses

    def test_normal_form_is_canonical(self):
        x, y = R2.gens
        ideal = Ideal(R2, (x**2 + y, y**2 + x))
        f = x**3 + y**3
        g = f + (x + y) * (x**2 + y) + y * (y**2 + x)
        assert ideal.normal_form(f) == ideal.normal_form(g)


class TestIdealEquality:
    def test_unit_presentations(self):
        x, _ = R2.gens
        assert Ideal(R2, (R2.one,)) == Ideal(R2, (x, R2.one + x))

    def test_generator_shuffle(self):
        rng = random.Random(43)
        for _ in range(25):
            ideal = rand_ideal(rng, R3, 3)
            gens = list(ideal.gens)
            rng.shuffle(gens)
            x, y = R3.gens
            mixed = list(gens)
            if len(gens) >= 2:
                mixed[0] = gens[0] + gens[1]
            assert Ideal(R3, mixed) == ideal

    def test_equal_generators_need_no_basis(self):
        # the textbook pair needs an S-pair, which a cap of 0 refuses
        x, y = R5.gens
        gens = (x**2 + y, x * y + x)
        with spair_budget(0):
            with pytest.raises(ResourceError):
                Ideal(R5, gens).groebner()
            assert Ideal(R5, gens) == Ideal(R5, gens)

    def test_cross_ring_equality_is_false(self):
        assert Ideal(R2, R2.gens) != Ideal(R3, R3.gens)

    def test_containment(self):
        x, y = R2.gens
        assert Ideal(R2, (x * y,)) <= Ideal(R2, (x,))
        assert not Ideal(R2, (x,)) <= Ideal(R2, (x * y,))
        assert Ideal(R2, (x,)) >= Ideal(R2, (x**2,))


class TestIntersection:
    def test_monomial_lcm(self):
        x, y = R2.gens
        lhs = Ideal(R2, (x**2 * y,))
        rhs = Ideal(R2, (x * y**2,))
        assert lhs.intersection(rhs) == Ideal(R2, (x**2 * y**2,))

    def test_with_zero_and_unit(self):
        x, _ = R2.gens
        ideal = Ideal(R2, (x,))
        assert ideal.intersection(Ideal(R2, ())).is_zero()
        assert ideal.intersection(Ideal(R2, (R2.one,))) == ideal

    def test_meet_property(self):
        rng = random.Random(47)
        for ring in (R2, R3):
            for _ in range(20):
                a = rand_ideal(rng, ring, 2)
                b = rand_ideal(rng, ring, 2)
                inter = a.intersection(b)
                assert inter <= a and inter <= b
                for g in a.gens:
                    for h in b.gens:
                        assert inter.contains(g * h)

    def test_aux_variable_name_avoids_collision(self):
        ring = Ring(p=2, var_names=("_t", "x"))
        t, x = ring.gens
        lhs = Ideal(ring, (t,))
        rhs = Ideal(ring, (x,))
        assert lhs.intersection(rhs) == Ideal(ring, (t * x,))


# Names of the routes colon kept before it became the quotient of the
# intersection: the elimination, the monomial formula and the containment test.
OLD_COLON_ROUTES = {"_eliminate", "_monomials", "_monomial_ideal", "contains"}


def _names(node: ast.AST) -> set[str]:
    # every bare name and attribute name used under ``node``
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def colon_routes(source: str) -> tuple[bool, set[str]]:
    """Whether ``Ideal.colon`` calls ``intersection``, and the old routes it names."""
    (ideal,) = (
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "Ideal"
    )
    (colon,) = (
        node for node in ideal.body if isinstance(node, ast.FunctionDef) and node.name == "colon"
    )
    calls = {
        n.func.attr
        for n in ast.walk(colon)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }
    return "intersection" in calls, _names(colon) & OLD_COLON_ROUTES


def callers(source: str, name: str) -> set[str]:
    """Qualified names of the functions that call ``name``."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in _names(child.func):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def eliminating_functions(source: str) -> set[str]:
    """Qualified names of the functions that call ``_eliminate``."""
    return callers(source, "_eliminate")


class TestColon:
    def test_colon_is_read_off_the_one_signature_step(self):
        # colon neither meets nor eliminates, intersection alone eliminates,
        # and one function builds S-polynomials, so there is one J-pair loop.
        # Colon and the elimination reach grevlex through one helper, the
        # only code that makes the copy or re-keys terms, and the elimination
        # lifts and projects only there.
        source = pathlib.Path(groebner.__file__).read_text()
        meets, routes = colon_routes(source)
        assert not meets and "_eliminate" not in routes
        assert eliminating_functions(source) == {"Ideal.intersection"}
        assert len(callers(source, "_spoly")) == 1
        assert callers(source, "_in_grevlex") == {"Ideal.colon", "Ideal._eliminate"}
        assert callers(source, "replace") == callers(source, "_carried") == {"_in_grevlex"}
        assert callers(source, "_extended_ring") == callers(source, "_project") == {"_eliminated"}

    def test_the_scan_finds_a_second_pair_loop(self):
        source = (
            "def _g2v_step(basis, f):\n    return _spoly(f, f)\n"
            "class Ideal:\n    def colon(self, f):\n        return groebner._spoly(f, f)\n"
        )
        assert callers(source, "_spoly") == {"_g2v_step", "Ideal.colon"}

    @pytest.mark.parametrize(
        "body, found",
        [
            ("return self.intersection(f)", (True, set())),
            ("return self._eliminate(f)", (False, {"_eliminate"})),
            ("if self.contains(f):\n            return self\n"
             "        return self.intersection(f)", (True, {"contains"})),
            ("return _monomial_ideal(self.ring, self._monomials())",
             (False, {"_monomial_ideal", "_monomials"})),
        ],
    )
    def test_the_scan_sees_each_route(self, body, found):
        source = f"class Ideal:\n    def colon(self, f):\n        {body}\n"
        assert colon_routes(source) == found

    def test_the_scan_finds_a_second_elimination(self):
        source = (
            "class Ideal:\n"
            "    def intersection(self, other):\n        return self._eliminate(other)\n"
            "    def colon(self, f):\n        return _eliminate(self, f)\n"
        )
        assert eliminating_functions(source) == {"Ideal.intersection", "Ideal.colon"}

    def test_example(self):
        x, y = R2.gens
        assert Ideal(R2, (x**2 + x * y,)).colon(x) == Ideal(R2, (x + y,))

    def test_unit_divisor(self):
        x, _ = R2.gens
        ideal = Ideal(R2, (x**2,))
        assert ideal.colon(R2.one) == ideal

    def test_zero_divisor_rejected(self):
        x, _ = R2.gens
        with pytest.raises(DomainError):
            Ideal(R2, (x,)).colon(R2.zero)

    def test_zero_ideal(self):
        x, _ = R2.gens
        assert Ideal(R2, ()).colon(x).is_zero()

    def test_adjunction(self):
        # g in (I : f) exactly when g*f in I
        rng = random.Random(53)
        for ring in (R2, R3):
            for _ in range(25):
                ideal = rand_ideal(rng, ring, 2)
                f = rand_poly(rng, ring, 2, 2, nonzero=True)
                quotient = ideal.colon(f)
                for g in quotient.gens:
                    assert ideal.contains(g * f)
                probe = rand_poly(rng, ring, 2, 2)
                assert quotient.contains(probe) == ideal.contains(probe * f)


def _meet_by_elimination(a: Ideal, b: Ideal) -> Ideal:
    return Ideal(a.ring, a._eliminate(b))


def _colon_by_elimination(ideal: Ideal, f) -> Ideal:
    meet = ideal._eliminate(Ideal(ideal.ring, (f,)))
    return Ideal(ideal.ring, [poly_division(g, [f])[0][0] for g in meet])


def _binomial_ideal(rng: random.Random, ring: Ring) -> Ideal:
    # a nonzero ideal with a generator of two or more terms, so that no
    # monomial formula applies to it
    while True:
        ideal = rand_ideal(rng, ring, 3)
        if any(len(g) > 1 for g in ideal.gens):
            return ideal


class TestShortcutsAgreeWithElimination:
    """Each shortcut gives the reduced basis the elimination route gives.

    The shortcuts compute no basis, so they also succeed under an S-pair
    cap of 0 once the cached basis they read is in place.
    """

    RINGS = [Ring(p=p, var_names=("x", "y", "z"), order=order)
             for p in (2, 3, 5) for order in ("grevlex", "lex")]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_monomial_formulas(self, ring):
        rng = random.Random(71 + ring.p)
        for _ in range(15):
            a, b = (
                Ideal(ring, [rand_monomial(rng, ring, 4) for _ in range(k)])
                for k in (rng.randint(1, 3), rng.randint(1, 3))
            )
            f = rand_monomial(rng, ring, 3)
            meet = _meet_by_elimination(a, b).groebner()
            quotient = _colon_by_elimination(a, f).groebner()
            with spair_budget(0):
                fast_meet = a.intersection(b)
                fast_quotient = a.colon(f)
            assert fast_meet.groebner() == meet
            assert fast_quotient.groebner() == quotient

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_containment_in_a_cached_basis(self, ring):
        rng = random.Random(73 + ring.p)
        for _ in range(15):
            big = _binomial_ideal(rng, ring)
            small = Ideal(ring, [rand_poly(rng, ring, 2, 2, nonzero=True) * g
                                 for g in rng.sample(big.gens, 1)])
            meets = (
                Ideal(ring, small.gens).intersection(Ideal(ring, big.gens)).groebner(),
                Ideal(ring, big.gens).intersection(Ideal(ring, small.gens)).groebner(),
            )
            big.groebner()
            with spair_budget(0):
                fast = (small.intersection(big), big.intersection(small))
            assert tuple(m.groebner() for m in fast) == meets

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_a_contained_or_empty_side_is_returned(self, ring):
        # multiples of the other side's monomials, and the zero ideal, meet
        # it in themselves: the shortcut returns that side, builds no ideal
        rng = random.Random(83 + ring.p)
        zero = Ideal(ring, ())
        for _ in range(15):
            big = Ideal(ring, [rand_monomial(rng, ring, 3) for _ in range(rng.randint(1, 3))])
            small = Ideal(ring, [rand_monomial(rng, ring, 2) * rng.choice(big.gens)
                                 for _ in range(rng.randint(1, 3))])
            binomial = _binomial_ideal(rng, ring)
            for a, b in ((small, big), (big, small), (zero, big), (big, zero),
                         (zero, binomial), (binomial, zero)):
                meet = _meet_by_elimination(a, b).groebner()
                inner = a if Ideal(ring, a.gens) <= Ideal(ring, b.gens) else b
                with spair_budget(0):
                    fast = a.intersection(b)
                assert fast is inner
                assert fast.groebner() == meet

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_a_divisor_inside_a_cached_basis(self, ring):
        rng = random.Random(79 + ring.p)
        for _ in range(15):
            ideal = _binomial_ideal(rng, ring)
            f = ring.zero
            while not f:
                f = sum((rand_poly(rng, ring, 2, 2) * g for g in ideal.gens), ring.zero)
            quotient = Ideal(ring, ideal.gens).colon(f).groebner()
            ideal.groebner()
            with spair_budget(0):
                fast = ideal.colon(f)
            assert fast.groebner() == quotient == (ring.one,)


def _unit_mid_step(rng: random.Random, ring: Ring) -> tuple[Ideal, Poly]:
    # f is a unit modulo I = (f*g - 1, ...), so I + (f) = (1), but f is no
    # constant modulo I: the unit only appears once J-pairs are reduced
    while True:
        f = rand_poly(rng, ring, 2, 2, nonzero=True)
        g = rand_poly(rng, ring, 2, 2, nonzero=True)
        ideal = Ideal(ring, (f * g - 1,) + rand_ideal(rng, ring, 1).gens)
        if not ideal.is_unit() and not ideal.normal_form(f).is_constant():
            return Ideal(ring, ideal.gens), f


class TestQuotientAgreesWithElimination:
    """Colons read off the signature step give elimination's reduced basis."""

    RINGS = [Ring(p=p, var_names=("x", "y", "z")[:n], order=order)
             for p in (2, 3, 5, 7, 32003) for n in (1, 2, 3)
             for order in ("grevlex", "lex", "elim")]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_seeded_colons(self, ring):
        # general inputs, the zero ideal, f in I and f a unit modulo I, each
        # against elimination, with I's basis not cached and then cached
        rng = random.Random(f"{ring}")
        cases = [(rand_ideal(rng, ring, 3, 3, 3), rand_poly(rng, ring, 3, 3, nonzero=True))
                 for _ in range(4)]
        cases.append((Ideal(ring, ()), rand_poly(rng, ring, 3, 3, nonzero=True)))
        ideal = _binomial_ideal(rng, ring)
        inside = sum((rand_poly(rng, ring, 2, 2) * g for g in ideal.gens), ring.zero)
        cases.append((ideal, inside or ideal.gens[0]))
        cases.append(_unit_mid_step(rng, ring))
        for ideal, f in cases:
            want = _colon_by_elimination(ideal, f).groebner()
            for cached in (False, True):
                if cached:
                    ideal.groebner()
                quotient = ideal.colon(f)
                assert quotient.ring == ring and quotient.groebner() == want

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    def test_a_grevlex_answer_comes_with_its_basis(self, order):
        ring = Ring(p=3, var_names=("x", "y"), order=order)
        x, y = ring.gens
        quotient = Ideal(ring, (x**2 + y, y**2 + x)).colon(x + y + 1)
        assert (quotient._gb is not None) == (order == "grevlex")
        assert quotient.groebner() == _colon_by_elimination(
            Ideal(ring, (x**2 + y, y**2 + x)), x + y + 1).groebner()

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    def test_cofactors_keep_the_degree_guard(self, order):
        # a product of a cofactor with a quotient would pass the guard here;
        # elimination refuses this input as well
        ring = Ring(p=5, var_names=("x", "y"), order=order)
        x, y = ring.gens
        ideal = Ideal(ring, (x ** (polyring.MAX_TOTAL_DEGREE - 2) * y - 1,))
        with pytest.raises(ResourceError, match="degree guard"):
            ideal.colon(x * y + 1)

    def test_a_lex_colon_runs_in_the_grevlex_copy(self):
        # In lex, the step would also build the lex basis of I + (f), which
        # took more than a minute; the grevlex copy takes well under a second.
        names = ("x", "y", "z")
        gens = ("x^4*z^4 + x*y^5*z^2 + y + z^2", "x^3*y^3 + x^2*y*z^2 + x*z^3")
        f = "x^3*y^3*z^3 + x^2*y^2*z^2 + x^2"
        lex = Ring(p=2, var_names=names, order="lex")
        start = time.perf_counter()
        quotient = Ideal(lex, [lex(g) for g in gens]).colon(lex(f))
        assert time.perf_counter() - start < 10
        # the same ideal as elimination finds in the elim order
        elim = Ring(p=2, var_names=names, order="elim")
        carried = Ideal(elim, [elim.poly(dict(g.terms())) for g in quotient.gens])
        assert carried == _colon_by_elimination(Ideal(elim, [elim(g) for g in gens]), elim(f))

    def test_a_monomial_colon_divides_no_polynomial(self, monkeypatch):
        rng = random.Random(89)
        ring = Ring(p=3, var_names=("x", "y", "z"))
        cases = []
        for k in range(20):
            ideal = Ideal(ring, [rand_monomial(rng, ring, 4) for _ in range(rng.randint(0, 3))])
            if k % 2:
                ideal.groebner()
            f = rand_monomial(rng, ring, 3)
            cases.append((ideal, f, _colon_by_elimination(ideal, f).groebner()))

        def refuse(*args, **kwargs):
            raise AssertionError("a monomial colon called poly_division")

        monkeypatch.setattr(groebner, "poly_division", refuse)
        for ideal, f, want in cases:
            assert ideal.colon(f).groebner() == want


class TestBudgetPartials:
    """A budget's partial lies in the caller's ring and in the answer."""

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    def test_colon_partials(self, order):
        ring = Ring(p=3, var_names=("x", "y"), order=order)
        x, y = ring.gens
        ideal = Ideal(ring, (x**2 + y, y**2 + x))
        ideal.groebner()
        answer = Ideal(ring, ideal.gens).colon(x + y + 1)
        for cap in itertools.count():
            with spair_budget(cap):
                try:
                    assert ideal.colon(x + y + 1) == answer
                    break
                except ResourceError as exc:
                    partial = exc.partial
            assert partial and all(g.ring == ring and answer.contains(g) for g in partial)
        assert cap > 0

    @pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
    def test_intersection_partials(self, order):
        # a lex or elim elimination runs in the grevlex copy, and its
        # partials come back in the caller's ring
        ring = Ring(p=3, var_names=("x", "y"), order=order)
        x, y = ring.gens
        a, b = Ideal(ring, (x**2 + y, x * y + 1)), Ideal(ring, (y**2 + x,))
        answer = a.intersection(b)
        nonempty = 0
        for cap in itertools.count():
            with spair_budget(cap):
                try:
                    assert Ideal(ring, a.gens).intersection(b) == answer
                    break
                except ResourceError as exc:
                    partial = exc.partial
            assert all(g.ring == ring and answer.contains(g) for g in partial)
            nonempty += bool(partial)
        assert cap > 0 and nonempty > 0


class TestBracketPower:
    def test_level_zero_and_one(self):
        x, y = R2.gens
        ideal = Ideal(R2, (x + y, x * y))
        assert ideal.bracket_power(0) == ideal
        assert ideal.bracket_power(1) == Ideal(R2, (x**2 + y**2, x**2 * y**2))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Ideal(R2, R2.gens).bracket_power(-1)

    def test_non_integer_level_rejected(self):
        with pytest.raises(DomainError):
            Ideal(R2, R2.gens).bracket_power(1.0)

    def test_cached_basis_transfer_matches_recomputation(self):
        rng = random.Random(59)
        for ring in (R2, R3):
            for _ in range(20):
                ideal = rand_ideal(rng, ring, 3)
                ideal.groebner()  # force the cache
                transferred = ideal.bracket_power(1).groebner()
                fresh = Ideal(ring, tuple(g.frobenius_power(1) for g in ideal.gens))
                assert transferred == fresh.groebner()

    def test_composition(self):
        rng = random.Random(61)
        for _ in range(15):
            ideal = rand_ideal(rng, R2, 2)
            assert ideal.bracket_power(1).bracket_power(1) == ideal.bracket_power(2)


class TestConstructionErrors:
    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            Ideal(R2, (R3.gens[0],))
        with pytest.raises(RingMismatchError):
            Ideal(R2, R2.gens) + Ideal(R3, R3.gens)
        with pytest.raises(RingMismatchError):
            Ideal(R2, R2.gens).intersection(Ideal(R3, R3.gens))

    def test_non_polynomial_generator_is_a_domain_error(self):
        with pytest.raises(DomainError):
            Ideal(R2, ("x",))

    def test_zero_generators_dropped(self):
        x, _ = R2.gens
        assert Ideal(R2, (R2.zero, x, R2.zero)).gens == (x,)
