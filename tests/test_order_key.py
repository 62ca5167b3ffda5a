"""The ring's integer order key against textbook orders on plain tuples.

The reference orders below are written from their definitions as
comparisons of exponent tuples; nothing here comes from fsing's order
code.  On seeded random exponent vectors, exponents at the degree guard
included, the key must rank monomials exactly as the reference does, and
it must be additive.

Polynomials store their terms under these keys, so the ring's codec must
also invert them: keys decode to their exponents, guard-bit words decide
divisibility, lcm and gcd words encode the tuple lcm and gcd, a Frobenius
twist scales every key, and terms carried between orders or into and out
of the elimination ring keep their exponents.  Each is checked against
plain tuple arithmetic, at the degree guard too.
"""

from __future__ import annotations

import random
from functools import cmp_to_key
from operator import le

import pytest

from fsing import Ring
from fsing.polyring import MAX_TOTAL_DEGREE, WORD_LIMIT


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


# -- the codec: keys back to exponents, words and their guard bits -----------

ORDERS = ("grevlex", "lex", "elim")


def _ring(order: str, n: int, p: int = 3) -> Ring:
    return Ring(p=p, var_names=tuple(f"x{i}" for i in range(n)), order=order)


def _edges(n: int) -> list[tuple[int, ...]]:
    """One variable at the guard, and the full budget split every way."""
    out = []
    for i in range(n):
        m = [0] * n
        m[i] = MAX_TOTAL_DEGREE
        out.append(tuple(m))
    even = [MAX_TOTAL_DEGREE // n] * n
    even[0] += MAX_TOTAL_DEGREE - sum(even)
    out.append(tuple(even))
    out.append((0,) * n)
    return out


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_keys_decode_to_their_exponents(order, n):
    rng = random.Random(7200 + 10 * n + len(order))
    ring = _ring(order, n)
    key, codec = ring.monomial_key(), ring._codec
    for m in _edges(n) + [_exponents(rng, n) for _ in range(300)]:
        k = key(m)
        assert codec.decode(k) == m
        assert codec.key(codec.word(k)) == k
        assert codec.degree(k) == codec.word_degree(codec.word(k)) == sum(m)
        assert ring.monomial(m).leading_monomial() == m
        assert list(ring.monomial(m, 2).terms()) == [(m, 2)]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_guard_bits_decide_divisibility(order, n):
    rng = random.Random(7300 + 10 * n + len(order))
    ring = _ring(order, n)
    key, codec = ring.monomial_key(), ring._codec
    vectors = _edges(n) + [_exponents(rng, n) for _ in range(200)]
    pairs = [(a, a) for a in vectors]
    pairs += [(rng.choice(vectors), rng.choice(vectors)) for _ in range(400)]
    for a in vectors[:60]:
        # a divisor and a near miss: one unit less, or one unit more, in a variable
        i = rng.randrange(n)
        if a[i]:
            pairs.append((a[:i] + (a[i] - 1,) + a[i + 1 :], a))
        if sum(a) < MAX_TOTAL_DEGREE:
            pairs.append((a[:i] + (a[i] + 1,) + a[i + 1 :], a))
    divides = 0
    for a, b in pairs:
        expected = all(map(le, a, b))
        divides += expected
        assert codec.divides(codec.word(key(a)), codec.word(key(b))) == expected, (a, b)
    assert 0 < divides < len(pairs)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_lcm_and_gcd_words_encode_the_tuple_lcm_and_gcd(order, n):
    rng = random.Random(7400 + 10 * n + len(order))
    ring = _ring(order, n)
    key, codec = ring.monomial_key(), ring._codec
    vectors = _edges(n) + [_exponents(rng, n) for _ in range(150)]
    for _ in range(300):
        a, b = rng.choice(vectors), rng.choice(vectors)
        wa, wb = codec.word(key(a)), codec.word(key(b))
        lcm, gcd = tuple(map(max, a, b)), tuple(map(min, a, b))
        assert codec.key(codec.lcm(wa, wb)) == key(lcm)
        assert codec.word_degree(codec.lcm(wa, wb)) == sum(lcm)
        assert codec.key(codec.gcd(wa, wb)) == key(gcd)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_guard_bits_pick_the_words_with_every_field_below_a_bound(order, n):
    rng = random.Random(7450 + 10 * n + len(order))
    ring = _ring(order, n)
    key, codec = ring.monomial_key(), ring._codec
    vectors = _edges(n) + [_exponents(rng, n) for _ in range(150)]
    words = [codec.word(key(a)) for a in vectors]
    tops = sorted({max(a) for a in vectors})
    bounds = {1, 2, 3, 2**20, WORD_LIMIT - 1, WORD_LIMIT, 3**20}
    bounds |= {top + d for top in rng.sample(tops, min(8, len(tops))) for d in (0, 1)}
    for Q in sorted(bounds):
        expected = [w for w, a in zip(words, vectors) if max(a) < Q]
        assert codec._below(words, Q) == expected, Q
    assert codec._below(words, WORD_LIMIT) == words


@pytest.mark.parametrize("order", ORDERS)
def test_frobenius_twist_scales_every_key(order):
    rng = random.Random(7500 + len(order))
    for p, n in ((2, 1), (3, 2), (5, 3), (2, 5)):
        ring = _ring(order, n, p)
        key = ring.monomial_key()
        for _ in range(20):
            f = ring.poly(
                {tuple(rng.randint(0, 4) for _ in range(n)): rng.randrange(1, p) for _ in range(4)}
            )
            for e in (1, 2, 3):
                Q = ring.q**e
                twist = f.frobenius_power(e)
                assert twist._terms == {k * Q: c for k, c in f._terms.items()}
                assert [(key(m), c) for m, c in twist.terms()] == [
                    (key(m) * Q, c) for m, c in f.terms()
                ]
                if f:
                    assert twist.total_degree() == f.total_degree() * Q


def test_carried_lifted_and_projected_terms_are_unchanged():
    # _carried moves terms between orders; _in_grevlex carries an ideal and
    # polynomials into the grevlex copy and the answer back, and there an
    # elimination lifts and projects by keeping every key
    from fsing import Ideal
    from fsing.groebner import _carried, _extended_ring, _in_grevlex, _project
    from fsing.polyring import Poly

    rng = random.Random(7600)
    for n in (1, 2, 3):
        rings = {order: _ring(order, n, 5) for order in ORDERS}
        copy = rings["grevlex"]
        for _ in range(20):
            terms = {tuple(rng.randint(0, 6) for _ in range(n)): rng.randrange(1, 5) for _ in range(5)}
            for source in ORDERS:
                f = rings[source].poly(terms)
                want = dict(f.terms())
                for target in ORDERS:
                    (g,) = _carried([f], rings[target])
                    assert g.ring == rings[target] and dict(g.terms()) == want
                    assert list(g.terms()) == sorted(
                        g.terms(), key=lambda t: rings[target].monomial_key()(t[0]), reverse=True
                    )
                seen = []

                def lift_and_project(ideal, polys):
                    seen.append((ideal, polys))
                    ext = _extended_ring(ideal.ring)
                    lifted = Poly(ext, polys[0]._terms)
                    assert dict(lifted.terms()) == {(0,) + m: c for m, c in want.items()}
                    return [_project(lifted, ideal.ring)]

                (back,) = _in_grevlex(Ideal(f.ring, (f,)), (f,), lift_and_project)
                ((ideal, (inner,)),) = seen
                assert ideal.ring == inner.ring == copy
                assert dict(ideal.gens[0].terms()) == dict(inner.terms()) == want
                assert (inner is f) == (source == "grevlex")
                assert back == f and dict(back.terms()) == want
                # the same extended ring from the copy as from the ring itself
                assert _extended_ring(f.ring) == _extended_ring(copy)
