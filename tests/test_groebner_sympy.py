"""Differential tests of reduced bases, intersections and colons against sympy.

sympy's ``groebner(..., modulus=p, order=...)`` shares no code with fsing,
so two independent engines must agree exactly: a reduced Groebner basis is
unique for a fixed monomial order.  Intersections and colons are rederived
on the sympy side by elimination (a basis in sympy's product order, the
auxiliary variable first) and projected to the base ring before the reduced
bases are compared.  Inputs are seeded random ideals, including all-monomial ones and
systems of three to five generators, at p in {2, 3, 5, 32003}, in grevlex
and lex; in an elim ring, which meets and divides in its grevlex copy,
sympy's generators are rebuilt in fsing and compared as ideals.  Seeded cases aim at each
shortcut that ``intersection`` and ``colon`` take before elimination:
monomial formulas, containment in a cached basis, and f in I.
"""

from __future__ import annotations

import random

import pytest
import sympy
from sympy.polys.orderings import ProductOrder, grevlex, lex

from fsing import Ideal, Ring, buchberger

PRIMES = (2, 3, 5, 32003)
NAMES = ("x", "y", "z")
# Eliminates the first variable: its exponent first, then grevlex on the rest.
ELIMINATION = ProductOrder((lex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))


def _random_terms(rng: random.Random, p: int, n: int, monomial: bool) -> dict:
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(1 if monomial else rng.randint(1, 3)):
        m = tuple(rng.randint(0, 3) for _ in range(n))
        while sum(m) > 4:
            m = tuple(rng.randint(0, 2) for _ in range(n))
        terms[m] = rng.randrange(1, p)
    return terms


def _random_system(rng: random.Random, p: int, n: int, fewest: int = 1) -> list[dict]:
    monomial = rng.random() < 0.25
    return [_random_terms(rng, p, n, monomial) for _ in range(rng.randint(fewest, 3))]


def _to_sympy(terms: dict, syms) -> sympy.Expr:
    return sympy.Add(
        *(c * sympy.Mul(*(s**e for s, e in zip(syms, m))) for m, c in terms.items())
    )


def _sympy_terms(poly: sympy.Poly, p: int) -> frozenset:
    return frozenset((m, int(c) % p) for m, c in poly.terms() if int(c) % p)


def _sympy_basis(exprs, syms, p: int, order: str) -> set[frozenset]:
    nonzero = [e for e in exprs if sympy.expand(e) != 0]
    if not nonzero:
        return set()
    gb = sympy.groebner(nonzero, *syms, modulus=p, order=order)
    return {_sympy_terms(g, p) for g in gb.polys}


def _fsing_basis(basis) -> set[frozenset]:
    return {frozenset(g.terms()) for g in basis}


def _systems(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        p = PRIMES[k % len(PRIMES)]
        n = rng.randint(2, 3)
        yield rng, p, n


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_bases_match_sympy(order):
    for rng, p, n in _systems(8101 if order == "grevlex" else 8102, 48):
        ring = Ring(p=p, var_names=NAMES[:n], order=order)
        syms = sympy.symbols(NAMES[:n])
        system = _random_system(rng, p, n, fewest=2)
        ours = buchberger([ring.poly(t) for t in system], ring)
        theirs = _sympy_basis([_to_sympy(t, syms) for t in system], syms, p, order)
        assert _fsing_basis(ours) == theirs, (p, order, system)
        assert all(g.leading_coeff() == 1 for g in ours)
        key = ring.monomial_key()
        lead_keys = [key(g.leading_monomial()) for g in ours]
        assert lead_keys == sorted(lead_keys, reverse=True)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_incremental_steps_match_sympy(order):
    # three to five generators in three variables, a few of them single
    # terms: the signature engine seeds its basis with the monomials and
    # runs one incremental step per other generator
    rng = random.Random(8114 if order == "grevlex" else 8115)
    syms = sympy.symbols(NAMES)
    for k in range(80):
        p = PRIMES[k % len(PRIMES)]
        ring = Ring(p=p, var_names=NAMES, order=order)
        system = [
            _random_terms(rng, p, 3, rng.random() < 0.2) for _ in range(rng.randint(3, 5))
        ]
        ours = buchberger([ring.poly(t) for t in system], ring)
        theirs = _sympy_basis([_to_sympy(t, syms) for t in system], syms, p, order)
        assert _fsing_basis(ours) == theirs, (p, order, system)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_redundant_presentations_give_the_same_basis(order):
    # the reduced basis is unique, so reordered, duplicated or redundant
    # generators must not change the answer
    for rng, p, n in _systems(8106 if order == "grevlex" else 8107, 24):
        ring = Ring(p=p, var_names=NAMES[:n], order=order)
        syms = sympy.symbols(NAMES[:n])
        system = _random_system(rng, p, n, fewest=2)
        theirs = _sympy_basis([_to_sympy(t, syms) for t in system], syms, p, order)
        gens = [ring.poly(t) for t in system]
        a, b = rng.sample(gens, 2)
        multiplier = ring.poly(_random_terms(rng, p, n, False))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        for variant in (
            gens[::-1],
            shuffled,
            [g for g in gens for _ in range(2)],
            [a * multiplier] + gens,
            gens + [a + b * multiplier, b * multiplier],
        ):
            ours = buchberger(variant, ring)
            assert _fsing_basis(ours) == theirs, (p, order, system, variant)


def test_all_monomial_inputs_match_sympy():
    rng = random.Random(8103)
    for k in range(24):
        p = PRIMES[k % len(PRIMES)]
        order = ("grevlex", "lex")[k % 2]
        ring = Ring(p=p, var_names=NAMES, order=order)
        system = [_random_terms(rng, p, 3, True) for _ in range(rng.randint(1, 5))]
        ours = buchberger([ring.poly(t) for t in system], ring)
        theirs = _sympy_basis([_to_sympy(t, sympy.symbols(NAMES)) for t in system],
                              sympy.symbols(NAMES), p, order)
        assert _fsing_basis(ours) == theirs, (p, order, system)
        assert all(g.is_monomial() for g in ours)


def _sympy_intersection(a: list, b: list, syms, p: int) -> list:
    # Eliminate t from t*A + (1-t)*B.
    t = sympy.Symbol("t_aux")
    lifted = [t * g for g in a] + [(1 - t) * g for g in b]
    gb = sympy.groebner(lifted, t, *syms, modulus=p, order=ELIMINATION)
    return [g for g in gb.exprs if not g.has(t)]


def _sympy_colon(a: list, f, syms, p: int) -> list:
    # Divide the generators of A ∩ (f) by f.
    quotients = []
    for g in _sympy_intersection(a, [f], syms, p):
        q, r = sympy.div(
            sympy.Poly(g, *syms, modulus=p), sympy.Poly(f, *syms, modulus=p)
        )
        assert r.is_zero
        quotients.append(q.as_expr())
    return quotients


def _both_orders(grevlex_seed: int, lex_seed: int, count: int):
    for order, seed in (("grevlex", grevlex_seed), ("lex", lex_seed)):
        for rng, p, n in _systems(seed, count):
            yield order, rng, p, n


def test_intersection_matches_sympy_elimination():
    for order, rng, p, n in _both_orders(8104, 8108, 24):
        ring = Ring(p=p, var_names=NAMES[:n], order=order)
        syms = sympy.symbols(NAMES[:n])
        a, b = _random_system(rng, p, n), _random_system(rng, p, n)
        ours = Ideal(ring, [ring.poly(t) for t in a]).intersection(
            Ideal(ring, [ring.poly(t) for t in b])
        )
        meet = _sympy_intersection(
            [_to_sympy(t, syms) for t in a], [_to_sympy(t, syms) for t in b], syms, p
        )
        theirs = _sympy_basis(meet, syms, p, order)
        assert _fsing_basis(ours.groebner()) == theirs, (p, order, a, b)


def test_colon_matches_sympy_elimination():
    for order, rng, p, n in _both_orders(8105, 8109, 24):
        ring = Ring(p=p, var_names=NAMES[:n], order=order)
        syms = sympy.symbols(NAMES[:n])
        a = _random_system(rng, p, n, fewest=2)
        f = _random_terms(rng, p, n, rng.random() < 0.25)
        ours = Ideal(ring, [ring.poly(t) for t in a]).colon(ring.poly(f))
        a_expr = [_to_sympy(t, syms) for t in a]
        quotients = _sympy_colon(a_expr, _to_sympy(f, syms), syms, p)
        theirs = _sympy_basis(quotients, syms, p, order)
        assert _fsing_basis(ours.groebner()) == theirs, (p, order, a, f)


def _from_sympy(expr, syms, ring: Ring):
    # sympy's polynomial rebuilt in an fsing ring
    terms = sympy.Poly(expr, *syms, modulus=ring.p).terms()
    return ring.poly({m: int(c) % ring.p for m, c in terms})


def test_elim_ring_intersections_and_colons_match_sympy_as_ideals():
    # an elim ring meets and divides in its grevlex copy; sympy's generators,
    # rebuilt in the elim ring, must give the same reduced basis
    general = 0
    for rng, p, n in _systems(8116, 24):
        ring = Ring(p=p, var_names=NAMES[:n], order="elim")
        syms = sympy.symbols(NAMES[:n])
        a = _random_system(rng, p, n, fewest=2)
        b = _random_system(rng, p, n)
        f = _random_terms(rng, p, n, rng.random() < 0.25)
        lhs = Ideal(ring, [ring.poly(t) for t in a])
        meet = lhs.intersection(Ideal(ring, [ring.poly(t) for t in b]))
        quotient = Ideal(ring, lhs.gens).colon(ring.poly(f))
        a_expr = [_to_sympy(t, syms) for t in a]
        their_meet = _sympy_intersection(a_expr, [_to_sympy(t, syms) for t in b], syms, p)
        their_quotient = _sympy_colon(a_expr, _to_sympy(f, syms), syms, p)
        for ours, theirs in ((meet, their_meet), (quotient, their_quotient)):
            rebuilt = Ideal(ring, [_from_sympy(g, syms, ring) for g in theirs])
            assert ours.groebner() == rebuilt.groebner(), (p, a, b, f)
        general += any(len(g) > 1 for g in lhs.gens + (ring.poly(f),))
    assert general >= 12


def _multiple(
    rng: random.Random, p: int, n: int, system: list[dict], monomial: bool = False
) -> dict:
    # sum of h_i * g_i over the system, with random h_i: an element of its ideal
    out: dict = {}
    for g in system:
        h = _random_terms(rng, p, n, monomial)
        for m1, c1 in g.items():
            for m2, c2 in h.items():
                m = tuple(map(sum, zip(m1, m2)))
                out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _sympy_contains(system: list, elements: list, syms, p: int, order: str) -> bool:
    gb = sympy.groebner(system, *syms, modulus=p, order=order)
    return all(gb.contains(g) for g in elements)


def _intersection_cases(rng: random.Random, p: int, n: int):
    # (name, A, B, whether B's basis is cached, the side inside the other or
    # None): each case exercises one shortcut.  The answer to a containment
    # case is its inner side; the test checks the containment with sympy,
    # whose elimination on these inputs can take minutes.
    mono = [_random_terms(rng, p, n, True) for _ in range(rng.randint(1, 3))]
    other = [_random_terms(rng, p, n, True) for _ in range(rng.randint(1, 3))]
    yield "monomial ∩ monomial", mono, other, False, None
    big = _random_system(rng, p, n, fewest=2)
    # generators times terms: a lex basis of larger multiples can take
    # minutes on either engine
    small = [
        _multiple(rng, p, n, [rng.choice(big)], monomial=True)
        for _ in range(rng.randint(1, 2))
    ]
    yield "I ⊆ J, J cached", small, big, True, small
    yield "J ⊆ I, I cached", big, small, False, small


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_intersection_shortcuts_match_sympy(order):
    for rng, p, n in _systems(8110 if order == "grevlex" else 8111, 16):
        ring = Ring(p=p, var_names=NAMES[:n], order=order)
        syms = sympy.symbols(NAMES[:n])
        for name, a, b, cache_b, inner in _intersection_cases(rng, p, n):
            lhs = Ideal(ring, [ring.poly(t) for t in a])
            rhs = Ideal(ring, [ring.poly(t) for t in b])
            (rhs if cache_b else lhs).groebner()
            ours = lhs.intersection(rhs)
            a_expr = [_to_sympy(t, syms) for t in a]
            b_expr = [_to_sympy(t, syms) for t in b]
            if inner is None:
                meet = _sympy_intersection(a_expr, b_expr, syms, p)
            else:
                meet, outer = (a_expr, b_expr) if inner is a else (b_expr, a_expr)
                assert _sympy_contains(outer, meet, syms, p, order), (name, p, a, b)
            theirs = _sympy_basis(meet, syms, p, order)
            assert _fsing_basis(ours.groebner()) == theirs, (name, p, a, b)


def _colon_cases(rng: random.Random, p: int, n: int):
    # (name, I, f, whether I's basis is cached): each case exercises one
    # shortcut.  Monomial cases are checked against sympy's elimination; for
    # the others (I : f) is (1) when f is in I and I when f is a constant.
    mono = [_random_terms(rng, p, n, True) for _ in range(rng.randint(1, 3))]
    yield "monomial : monomial", mono, _random_terms(rng, p, n, True), False
    constant = {(0,) * n: rng.randrange(1, p)}
    yield "monomial : constant", mono, constant, False
    system = _random_system(rng, p, n, fewest=2)
    yield "f ∈ I, I cached", system, _multiple(rng, p, n, system) or system[0], True
    yield "constant f", system, constant, False
    yield "constant f, I cached", system, constant, True


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_colon_shortcuts_match_sympy(order):
    for rng, p, n in _systems(8112 if order == "grevlex" else 8113, 16):
        ring = Ring(p=p, var_names=NAMES[:n], order=order)
        syms = sympy.symbols(NAMES[:n])
        for name, a, f, cache in _colon_cases(rng, p, n):
            ideal = Ideal(ring, [ring.poly(t) for t in a])
            if cache:
                ideal.groebner()
            ours = ideal.colon(ring.poly(f))
            a_expr = [_to_sympy(t, syms) for t in a]
            f_expr = _to_sympy(f, syms)
            if len(f) == 1 and all(len(t) == 1 for t in a):
                quotients = _sympy_colon(a_expr, f_expr, syms, p)
            elif not any(next(iter(f))):
                quotients = a_expr
            else:
                assert _sympy_contains(a_expr, [f_expr], syms, p, order), (name, p, a, f)
                quotients = [sympy.Integer(1)]
            theirs = _sympy_basis(quotients, syms, p, order)
            assert _fsing_basis(ours.groebner()) == theirs, (name, p, a, f)
