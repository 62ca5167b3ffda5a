"""Metamorphic checks: answers commute with automorphisms of the ring.

Permuting the variables, x_i -> x_pi(i), is an automorphism of F_p[x]
that commutes with the Frobenius map, so it carries roots, test ideals
and je chains of an input to those of its image.  At odd p so does the
scaling x_i -> c_i x_i with every c_i nonzero, because c**q == c in
F_p.  No reference answer is needed: each answer on the image is compared
with the image of the answer, as reduced bases.  Permutations move each
variable through every field of the packed words, and the roots are
taken in all three monomial orders.
"""

from __future__ import annotations

import itertools
import random

import pytest

from fsing import Ideal, Poly, Ring, ideal_root, je_chain
from fsing import test_ideal as tau

from conftest import rand_poly

NAMES = ("x", "y", "z", "w")


def _image(f: Poly, perm: tuple[int, ...], scale: tuple[int, ...]) -> Poly:
    # f(c_1 x_pi(1), ..., c_n x_pi(n))
    ring = f.ring
    terms = {}
    for m, c in f.terms():
        image = [0] * ring.n
        for i, b in enumerate(m):
            image[perm[i]] = b
            c = c * pow(scale[i], b, ring.p) % ring.p
        terms[tuple(image)] = c
    return ring.poly(terms)


def _basis(ideal: Ideal, perm=None, scale=None) -> tuple[Poly, ...]:
    # the reduced basis of the ideal or of its image, built afresh
    if perm is not None:
        ideal = Ideal(ideal.ring, [_image(g, perm, scale) for g in ideal.gens])
    return Ideal(ideal.ring, ideal.gens).groebner()


def _maps(rng: random.Random, ring: Ring, count: int):
    # permutations, each with a scaling at odd p (and the identity scaling
    # at p = 2, where F_2 has no other unit)
    perms = list(itertools.permutations(range(ring.n)))[1:]
    rng.shuffle(perms)
    identity = tuple(range(ring.n))
    out = [(perm, (1,) * ring.n) for perm in perms[:count]]
    if ring.p > 2:
        for perm in (identity, perms[0]):
            out.append((perm, tuple(rng.randrange(1, ring.p) for _ in range(ring.n))))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", ["grevlex", "lex", "elim"])
def test_roots_commute_with_the_automorphisms(p, order):
    rng = random.Random(f"{p}{order}")
    proper = 0
    for n in (2, 3, 4):
        ring = Ring(p=p, var_names=NAMES[:n], order=order)
        maps = _maps(rng, ring, 5)
        for _ in range(6):
            e = rng.choice((1, 2, 3))
            Q = ring.q**e
            # mostly with a common factor x_j**Q: then no floor is 0, every
            # component is a multiple of x_j, and the root is proper
            exps = [0] * n
            exps[rng.randrange(n)] = Q if rng.random() < 0.75 else 0
            factor = ring.monomial(exps)
            gens = [
                rand_poly(rng, ring, 6, 2 * Q, nonzero=True) * factor
                for _ in range(rng.randint(1, 3))
            ]
            ideal = Ideal(ring, gens)
            root = ideal_root(ideal, e)
            proper += not root.is_unit()
            for perm, scale in maps:
                image = Ideal(ring, [_image(g, perm, scale) for g in gens])
                assert _basis(ideal_root(image, e)) == _basis(root, perm, scale)
    assert proper >= 6


CURVES = ("x^3 + y^3 + z^3 + x*y*z", "x^2*y + y^3*z + z^4", "x^5*y^3 + x*y*z^2 + y^2")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_test_ideals_and_chains_commute_with_the_automorphisms(p):
    ring = Ring(p=p, var_names=NAMES[:3])
    rng = random.Random(p)
    maps = _maps(rng, ring, 2)
    chain_length = {2: 3, 3: 2, 5: 1}[p]
    proper = 0
    for text in CURVES:
        f = ring(text)
        for m, e in ((p - 1, 1), (ring.q, 1), (ring.q**2 - 1, 2)):
            tau_f = tau(f, m, e)
            proper += not tau_f.is_unit()
            for perm, scale in maps:
                assert _basis(tau(_image(f, perm, scale), m, e)) == _basis(tau_f, perm, scale)
        chain = je_chain(f, chain_length)
        for perm, scale in maps:
            image = je_chain(_image(f, perm, scale), chain_length)
            assert [lv.equal for lv in image] == [lv.equal for lv in chain]
            for got, want in zip(image, chain):
                assert _basis(got.direct) == _basis(want.direct, perm, scale)
                assert _basis(got.iterated) == _basis(want.iterated, perm, scale)
    assert proper >= 3


def test_the_check_sees_a_map_that_is_no_automorphism():
    # x -> x**2 is a ring map but no automorphism: the root of x*y is (1),
    # and the root of its image x**2*y is (x)
    ring = Ring(p=2, var_names=("x", "y"))

    def image(g):
        return ring.poly({(2 * m[0], m[1]): c for m, c in g.terms()})

    f = ring("x*y")
    image_root = ideal_root(Ideal(ring, (image(f),)), 1)
    root_image = Ideal(ring, [image(g) for g in ideal_root(Ideal(ring, (f,)), 1).gens])
    assert _basis(image_root) == (ring("x"),)
    assert _basis(image_root) != _basis(root_image)
