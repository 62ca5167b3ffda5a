"""Shared fixtures and random generators for the test suite.

Random objects are built from seeded ``random.Random`` instances so every
run sees the same pool.  Module validity is guaranteed by construction:
multipliers are drawn from the ideal of polynomials carrying both the
relation and ambient ideals into their bracket powers, and the result is
passed through the validating constructor as a safety net.
"""

from __future__ import annotations

import random

from fsing import FrobModule, Ideal, Poly, Ring


def rand_monomial(rng: random.Random, ring: Ring, max_degree: int) -> Poly:
    exps = [0] * ring.n
    degree = rng.randint(0, max_degree)
    for _ in range(degree):
        exps[rng.randrange(ring.n)] += 1
    coeff = rng.randint(1, ring.p - 1) if ring.p > 2 else 1
    return ring.monomial(exps, coeff)


def rand_poly(
    rng: random.Random,
    ring: Ring,
    max_terms: int,
    max_degree: int,
    nonzero: bool = False,
) -> Poly:
    while True:
        out = ring.zero
        for _ in range(rng.randint(0, max_terms)):
            out = out + rand_monomial(rng, ring, max_degree)
        if out or not nonzero:
            return out


def rand_ideal(
    rng: random.Random,
    ring: Ring,
    max_gens: int,
    max_terms: int = 2,
    max_degree: int = 3,
) -> Ideal:
    gens = [
        rand_poly(rng, ring, max_terms, max_degree)
        for _ in range(rng.randint(0, max_gens))
    ]
    return Ideal(ring, gens)


def colon_by_ideal(numerator: Ideal, denominator: Ideal) -> Ideal:
    """(A : B) as the intersection of (A : b) over generators b of B."""
    ring = numerator.ring
    out = Ideal(ring, (ring.one,))
    for g in denominator.gens:
        out = out.intersection(numerator.colon(g))
    return out


def valid_multipliers(relations: Ideal, ambient: Ideal) -> Ideal:
    """Ideal of multipliers making (relations, ambient, f) a valid module."""
    ring = relations.ring
    out = colon_by_ideal(relations.bracket_power(1), relations)
    out = out.intersection(colon_by_ideal(ambient.bracket_power(1), ambient))
    return out


def rand_module(rng: random.Random, ring: Ring) -> FrobModule:
    # Multipliers are kept small: each kernel-chain level is a colon by f and
    # each shrinking step a root of f times an ideal, whose Groebner cost
    # grows steeply with the degree and term count of f, and the pools feed
    # timed acceptance runs.
    relations = rand_ideal(rng, ring, max_gens=2, max_terms=2, max_degree=3)
    if rng.random() < 0.5:
        ambient = Ideal(ring, (ring.one,))
    else:
        extras = [rand_monomial(rng, ring, 2) for _ in range(rng.randint(0, 1))]
        ambient = Ideal(ring, relations.gens + tuple(g for g in extras if g))
    pool = valid_multipliers(relations, ambient).groebner()
    small = [g for g in pool if g.total_degree() <= 4 and len(g) <= 3]
    multiplier = ring.zero
    if small:
        for _ in range(rng.randint(1, 2)):
            multiplier = multiplier + rng.choice(small) * rand_monomial(rng, ring, 1)
        if multiplier.total_degree() > 6 or len(multiplier) > 5:
            multiplier = small[0]
    return FrobModule.validate(relations, ambient, multiplier)


def module_pool(seed: int, count: int, rings: list[Ring]) -> list[FrobModule]:
    rng = random.Random(seed)
    out: list[FrobModule] = []
    while len(out) < count:
        out.append(rand_module(rng, rings[len(out) % len(rings)]))
    return out
