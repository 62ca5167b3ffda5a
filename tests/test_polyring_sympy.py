"""Differential test of the polynomial parser against sympy.

sympy's ``Poly(sympify(text), *gens, modulus=p)`` reads the same text with
an engine that shares no code with fsing, so both must expand it to the
same terms.  Seeded random texts at p in {2, 3, 5, 32003} over one to four
variables carry signs, coefficients of p or more, exponents 0-7, repeated
variables, nested parentheses and powers of parenthesized sums.
"""

from __future__ import annotations

import random

import pytest
import sympy

from fsing import Ring

PRIMES = (2, 3, 5, 32003)
NAMES = ("x", "y", "z", "w")


def _random_sum(rng: random.Random, names: tuple[str, ...], p: int, depth: int) -> str:
    parts = []
    for i in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.25:
                factors.append(str(rng.randint(0, 3 * p)))
            elif roll < 0.85 or depth == 0:
                name = rng.choice(names)
                factors.append(name if rng.random() < 0.3 else f"{name}^{rng.randint(0, 7)}")
            else:
                inner = f"({_random_sum(rng, names, p, depth - 1)})"
                factors.append(inner + (f"^{rng.randint(0, 3)}" if rng.random() < 0.5 else ""))
        sign = rng.choice(("+ ", "- ", "" if i == 0 else "+ "))
        parts.append(sign + "*".join(factors))
    return " ".join(parts)


def _sympy_terms(text: str, names: tuple[str, ...], p: int) -> dict:
    gens = sympy.symbols(names)
    poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), *gens, modulus=p)
    # sympy prints coefficients in the symmetric range; fsing in [1, p-1]
    terms = {m: int(c) % p for m, c in poly.terms()}
    return {m: c for m, c in terms.items() if c}


@pytest.mark.parametrize("p", PRIMES)
def test_parsed_terms_match_sympy(p):
    rng = random.Random(2300 + p)
    for _ in range(40):
        names = NAMES[: rng.randint(1, 4)]
        ring = Ring(p=p, var_names=names)
        text = _random_sum(rng, names, p, depth=2)
        assert dict(ring(text).terms()) == _sympy_terms(text, names, p), text
