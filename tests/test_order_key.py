"""The ring's integer order key against textbook orders on plain tuples.

The reference orders below are written from their definitions as
comparisons of exponent tuples; nothing here comes from fsing's order
code.  On seeded random exponent vectors, exponents at the degree guard
included, the key must rank monomials exactly as the reference does, and
it must be additive.
"""

from __future__ import annotations

import random
from functools import cmp_to_key

import pytest

from fsing import Ring
from fsing.polyring import MAX_TOTAL_DEGREE


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _lex_cmp(a, b) -> int:
    # a > b when the first nonzero entry of a - b is positive
    for x, y in zip(a, b):
        if x != y:
            return _sign(x - y)
    return 0


def _grevlex_cmp(a, b) -> int:
    # higher total degree wins; at equal degree, a > b when the last
    # nonzero entry of a - b is negative
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return _sign(y - x)
    return 0


def _elim_cmp(a, b) -> int:
    # the first variable's exponent decides, then grevlex on the rest
    if a[0] != b[0]:
        return _sign(a[0] - b[0])
    return _grevlex_cmp(a[1:], b[1:])


REFERENCE = {"grevlex": _grevlex_cmp, "lex": _lex_cmp, "elim": _elim_cmp}


def _exponents(rng: random.Random, n: int) -> tuple[int, ...]:
    """A vector of total degree at most MAX_TOTAL_DEGREE, often at an edge."""
    shape = rng.randrange(4)
    if shape == 0:
        return tuple(rng.randint(0, 3) for _ in range(n))
    if shape == 1:
        m = [0] * n
        m[rng.randrange(n)] = MAX_TOTAL_DEGREE
        return tuple(m)
    # split the full degree budget, or most of it, among the variables
    total = MAX_TOTAL_DEGREE - (rng.randint(0, 2) if shape == 2 else rng.randint(0, 10**5))
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


@pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_key_ranks_like_the_reference_order(order, n):
    rng = random.Random(7000 + 10 * n + len(order))
    key = Ring(p=2, var_names=tuple(f"x{i}" for i in range(n)), order=order).monomial_key()
    vectors = [_exponents(rng, n) for _ in range(300)]
    # close neighbours: one unit less in a variable, or moved to the next
    for m in vectors[:40]:
        i = rng.randrange(n)
        if m[i]:
            less = list(m)
            less[i] -= 1
            moved = list(less)
            moved[(i + 1) % n] += 1
            vectors += [tuple(less), tuple(moved)]
    expected = sorted(set(vectors), key=cmp_to_key(REFERENCE[order]))
    assert sorted(set(vectors), key=key) == expected
    for a, b in zip(vectors, vectors[1:]):
        assert _sign(key(a) - key(b)) == REFERENCE[order](a, b)


@pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
def test_key_is_additive(order):
    rng = random.Random(7100 + len(order))
    for n in (1, 2, 4):
        key = Ring(p=3, var_names=tuple(f"x{i}" for i in range(n)), order=order).monomial_key()
        for _ in range(200):
            a, b = _exponents(rng, n), _exponents(rng, n)
            assert key(tuple(x + y for x, y in zip(a, b))) == key(a) + key(b)
        assert key((0,) * n) == 0
