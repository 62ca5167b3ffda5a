"""Differential tests of reduced bases, intersections and colons against sympy.

sympy's ``groebner(..., modulus=p, order=...)`` shares no code with fsing,
so two independent engines must agree exactly: a reduced Groebner basis is
unique for a fixed monomial order.  Intersections and colons are rederived
on the sympy side by elimination (a basis in sympy's product order, the
auxiliary variable first) and projected to the base ring before the reduced
bases are compared.  Inputs are seeded random ideals, including all-monomial ones,
at p in {2, 3, 5, 32003}.
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
    return {frozenset(g._terms.items()) for g in basis}


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
def test_redundant_presentations_give_the_same_basis(order):
    # every generator goes through the same admission step, so reordered,
    # duplicated or redundant generators must not change the answer
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


def test_intersection_matches_sympy_elimination():
    for rng, p, n in _systems(8104, 24):
        ring = Ring(p=p, var_names=NAMES[:n])
        syms = sympy.symbols(NAMES[:n])
        a, b = _random_system(rng, p, n), _random_system(rng, p, n)
        ours = Ideal(ring, [ring.poly(t) for t in a]).intersection(
            Ideal(ring, [ring.poly(t) for t in b])
        )
        meet = _sympy_intersection(
            [_to_sympy(t, syms) for t in a], [_to_sympy(t, syms) for t in b], syms, p
        )
        theirs = _sympy_basis(meet, syms, p, "grevlex")
        assert _fsing_basis(ours.groebner()) == theirs, (p, a, b)


def test_colon_matches_sympy_elimination():
    for rng, p, n in _systems(8105, 24):
        ring = Ring(p=p, var_names=NAMES[:n])
        syms = sympy.symbols(NAMES[:n])
        a = _random_system(rng, p, n, fewest=2)
        f = _random_terms(rng, p, n, rng.random() < 0.25)
        ours = Ideal(ring, [ring.poly(t) for t in a]).colon(ring.poly(f))
        f_expr = _to_sympy(f, syms)
        meet = _sympy_intersection([_to_sympy(t, syms) for t in a], [f_expr], syms, p)
        quotients = []
        for g in meet:
            q, r = sympy.div(sympy.Poly(g, *syms, modulus=p),
                             sympy.Poly(f_expr, *syms, modulus=p))
            assert r.is_zero
            quotients.append(q.as_expr())
        theirs = _sympy_basis(quotients, syms, p, "grevlex")
        assert _fsing_basis(ours.groebner()) == theirs, (p, a, f)
