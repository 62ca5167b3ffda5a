"""One pinned digest over a seeded set of answers, read through the public surface.

Every answer below is rendered only with ``str()``, ``terms()``,
``leading_monomial()``, ``total_degree()``, ``Ideal.gens`` and the report
fields, never with a private attribute, and the lines are hashed.  The
set covers reduced bases, colons, intersections, roots, bracket powers,
products and powers, division, test ideals, ``nu``, threshold brackets
and minimal models with their certificates, in all three monomial
orders at p in {2, 3, 5, 32003} and up to four variables.  A change to
how polynomials are stored must leave every byte of it as it is: the
generator order of each ideal, the term order of each polynomial and
every printed coefficient.
"""

from __future__ import annotations

import hashlib
import random

from fsing import (
    Ideal,
    Ring,
    fpt_bracket,
    ideal_root,
    nu,
    poly_division,
    poly_root,
)
from fsing import test_ideal as tau

from conftest import rand_module, rand_poly

PINNED = "f71b9aada3f5ec29f2a29077a17b3ba93688d434b9c008c4bfdf39b71990b89a"

ORDERS = ("grevlex", "lex", "elim")
PRIMES = (2, 3, 5, 32003)


def _poly(g) -> str:
    return f"{g} | {list(g.terms())} | {g.total_degree()}"


def _ideal(ideal: Ideal) -> str:
    return "[" + "; ".join(map(str, ideal.gens)) + "]"


def _basis(ideal: Ideal) -> str:
    return "{" + "; ".join(_poly(g) for g in ideal.groebner()) + "}"


def _ring(order: str, p: int, n: int) -> Ring:
    return Ring(p=p, var_names=("x", "y", "z", "w")[:n], order=order)


def _arithmetic(rng: random.Random, ring: Ring) -> list[str]:
    f = rand_poly(rng, ring, 4, 4, nonzero=True)
    g = rand_poly(rng, ring, 3, 3, nonzero=True)
    I = Ideal(ring, [rand_poly(rng, ring, 3, 3) for _ in range(rng.randint(1, 3))])
    J = Ideal(ring, [rand_poly(rng, ring, 2, 3) for _ in range(rng.randint(1, 2))])
    quots, rem = poly_division(f * g + f, list(I.groebner()) or [g])
    return [
        str(ring),
        _poly(f * g),
        _poly(f**3),
        _poly(f.frobenius_power(1 if ring.p > 5 else 2)),
        str(f.leading_monomial()),
        _basis(I),
        _ideal(I.bracket_power(1)),
        _basis(I.bracket_power(1)),
        "; ".join(map(_poly, quots)) + " || " + _poly(rem),
        _ideal(I.colon(g)),
        _basis(I.colon(g)),
        _ideal(I.intersection(J)),
        _basis(I.intersection(J)),
        _ideal(poly_root(f * g, 1)),
        _ideal(ideal_root(I.bracket_power(1).scale(f), 2)),
    ]


def _frobenius(rng: random.Random, ring: Ring) -> list[str]:
    f = rand_poly(rng, ring, 3, 3, nonzero=True)
    lines = [_ideal(tau(f, m, e)) for m, e in ((1, 1), (ring.q + 1, 2), (2, 1))]
    if f.constant_term() == 0 and f.total_degree() > 0:
        lines += [str(nu(f, 2)), str(fpt_bracket(f, 1))]
    module = rand_module(rng, ring)
    report = module.minimalize()
    lines += [
        _ideal(module.relations) + _ideal(module.ambient) + _poly(module.multiplier),
        _basis(report.result.relations),
        _basis(report.result.ambient),
        str((report.kernel_chain_length, report.fr_iterations)),
        str(report.certificate.as_dict()),
    ]
    return lines


def answer_lines() -> list[str]:
    rng = random.Random(2201)
    lines: list[str] = []
    for order in ORDERS:
        for p in PRIMES:
            for n in (1, 2, 3, 4):
                for _ in range(3):
                    lines += _arithmetic(rng, _ring(order, p, n))
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                lines += _frobenius(rng, _ring(order, p, n))
    return lines


def test_answers_match_the_pinned_digest():
    digest = hashlib.sha256("\n".join(answer_lines()).encode()).hexdigest()
    assert digest == PINNED
