"""Minimal models re-derived with sympy, independently of fsing's engine.

``minimalize`` certifies its own answer, but with fsing's own colon,
intersection and Groebner bases: a fault there would make an answer and
its certificate wrong together.  Here sympy's ``groebner(..., modulus=p)``
re-derives, for seeded module pools:

- the stabilized kernel chain K_{e+1} = (K_e^[q] : f) from the relations,
  and its length, the first e >= 1 at which it repeats;
- fixedness of the minimal pair (K, J): K + root(f J) = J;
- injectivity: (K^[q] : f) meet J = K;
- the nilpotency order, from its definition: the least e with
  f^(1+q+...+q^(e-1)) * ambient inside relations^[q^e].

Bracket powers and Frobenius roots are plain dicts of exponent tuples:
over F_p the coefficients are fixed by the q-th power map, so g^[q] scales
every exponent by q, and root(I) is generated by the pieces of each
generator split by its exponents' residues mod q.  Colons and
intersections go through sympy elimination.  Only the module inputs and
the compared answers cross between the two engines.
"""

from __future__ import annotations

import pytest
import sympy

from fsing import FrobModule, Ideal, Ring

from conftest import module_pool
from test_groebner_sympy import (
    _sympy_basis,
    _sympy_colon,
    _sympy_intersection,
    _sympy_terms,
    _to_sympy,
)

POOL_RINGS = [
    Ring(p=2, var_names=("x",)),
    Ring(p=2, var_names=("x", "y")),
    Ring(p=3, var_names=("x",)),
    Ring(p=3, var_names=("x", "y")),
]
ORDER = "grevlex"


def _expr_dict(expr: sympy.Expr, syms, p: int) -> dict:
    return dict(_sympy_terms(sympy.Poly(expr, *syms, modulus=p), p))


def _bracket(exprs: list, syms, p: int, q: int) -> list:
    out = []
    for g in exprs:
        terms = _expr_dict(g, syms, p).items()
        out.append(_to_sympy({tuple(q * a for a in m): c for m, c in terms}, syms))
    return out


def _root(exprs: list, syms, p: int, q: int) -> list:
    # one generator per (generator, exponent residue mod q) pair
    out = []
    for g in exprs:
        pieces: dict[tuple, dict] = {}
        for m, c in _expr_dict(g, syms, p).items():
            rest = tuple(a % q for a in m)
            pieces.setdefault(rest, {})[tuple(a // q for a in m)] = c
        out += [_to_sympy(piece, syms) for piece in pieces.values()]
    return out


def _basis_exprs(exprs: list, syms, p: int) -> list:
    # the reduced basis as expressions, so each level is a canonical list
    nonzero = [g for g in exprs if sympy.expand(g) != 0]
    if not nonzero:
        return []
    return list(sympy.groebner(nonzero, *syms, modulus=p, order=ORDER).exprs)


def _kernel_step(kernel: list, f, syms, p: int, q: int) -> list:
    if f == 0:
        return [sympy.Integer(1)]
    bracket = _bracket(kernel, syms, p, q)
    return _basis_exprs(_sympy_colon(bracket, f, syms, p) if bracket else [], syms, p)


def _chain(relations: list, f, syms, p: int, q: int) -> tuple[list, int]:
    # K_1, K_2, ... up to the first e >= 1 with K_{e+1} = K_e
    cur = _kernel_step(relations, f, syms, p, q)
    e = 1
    while True:
        nxt = _kernel_step(cur, f, syms, p, q)
        if _key(nxt, syms, p) == _key(cur, syms, p):
            return cur, e
        cur, e = nxt, e + 1


def _key(exprs: list, syms, p: int) -> set[frozenset]:
    return _sympy_basis(exprs, syms, p, ORDER)


def _fsing_key(ideal: Ideal) -> set[frozenset]:
    return {frozenset(g.terms()) for g in ideal.groebner()}


def _exprs(ideal: Ideal, syms) -> list:
    return [_to_sympy(dict(g.terms()), syms) for g in ideal.gens]


def _check(module: FrobModule) -> None:
    ring = module.ring
    p, q = ring.p, ring.q
    syms = sympy.symbols(ring.var_names)
    f = _to_sympy(dict(module.multiplier.terms()), syms)
    relations = _exprs(module.relations, syms)

    kernel, length = _chain(relations, f, syms, p, q)
    ours, our_length = module._kernel_chain()
    assert _fsing_key(ours) == _key(kernel, syms, p), module
    assert our_length == length, module

    report = module.minimalize()
    assert report.kernel_chain_length == length, module
    K = _exprs(report.result.relations, syms)
    J = _exprs(report.result.ambient, syms)
    assert _fsing_key(report.result.relations) == _key(kernel, syms, p), module

    reached = _root([sympy.expand(f * g) for g in J], syms, p, q)
    assert _key(K + reached, syms, p) == _fsing_key(report.result.ambient), module

    preimage = _kernel_step(K, f, syms, p, q)
    meet = _sympy_intersection(preimage, J, syms, p) if preimage and J else []
    assert _key(meet, syms, p) == _key(K, syms, p), module


def _inside(exprs: list, ideal: list, syms, p: int) -> bool:
    # membership of every expression by sympy reduction modulo a basis
    nonzero = [g for g in ideal if sympy.expand(g) != 0]
    if not nonzero:
        return all(sympy.expand(g) == 0 for g in exprs)
    basis = sympy.groebner(nonzero, *syms, modulus=p, order=ORDER)
    return all(basis.reduce(g)[1] == 0 for g in exprs)


def _nilpotency_order(module: FrobModule, e_max: int) -> int | None:
    """The least e <= e_max with f^(1+q+...+q^(e-1)) * ambient <= relations^[q^e].

    None when no e <= e_max qualifies, found early when the level-e image
    J_e = relations + root_e(f^(1+...+q^(e-1)) * ambient) repeats: on a
    valid module J_(e+1) = relations + root(f * J_e), so once two images
    agree every later one equals them, and J_e != relations is exactly the
    failed containment at e.
    """
    ring = module.ring
    p, q = ring.p, ring.q
    syms = sympy.symbols(ring.var_names)
    f = _to_sympy(dict(module.multiplier.terms()), syms)
    relations = _exprs(module.relations, syms)
    ambient = _exprs(module.ambient, syms)
    image = None
    for e in range(1, e_max + 1):
        level = q**e
        moved = [sympy.expand(f ** ((level - 1) // (q - 1)) * g) for g in ambient]
        if _inside(moved, _bracket(relations, syms, p, level), syms, p):
            return e
        image, last = _key(relations + _root(moved, syms, p, level), syms, p), image
        if image == last:
            return None
    return None


def _check_order(module: FrobModule) -> None:
    for e_max in (32, 2):
        assert module.nilpotency_order(e_max) == _nilpotency_order(module, e_max), module


@pytest.mark.parametrize("seed", [131, 137, 505])
def test_pool_nilpotency_orders_match_the_definition(seed):
    for module in module_pool(seed, 40, POOL_RINGS):
        _check_order(module)


def test_long_nilpotency_orders_match_the_definition():
    # orders 4 (None within 2), never (after three shrinks), 1 for the
    # zero module, and 3 over two variables at p = 3
    R1, R3 = POOL_RINGS[0], POOL_RINGS[3]
    (x,) = R1.gens
    one = Ideal(R1, (R1.one,))
    x3, y3 = R3.gens
    orders = []
    for module in (
        FrobModule(Ideal(R1, (x**8,)), one, x**9),
        FrobModule(Ideal(R1, (x**6,)), one, x**6),
        FrobModule(Ideal(R1, (x,)), Ideal(R1, (x,)), x),
        FrobModule.validate(Ideal(R3, (x3**5,)), Ideal(R3, (x3, y3)), x3**11 * y3),
    ):
        _check_order(module)
        orders.append(module.nilpotency_order())
    assert orders == [4, None, 1, 3]


@pytest.mark.parametrize("seed", [131, 137, 505])
def test_pool_minimal_models_match_sympy(seed):
    for module in module_pool(seed, 40, POOL_RINGS):
        _check(module)


def test_long_chains_and_shrinks_match_sympy():
    # the pools almost all stop at length 1 with no shrink; these climb 1,
    # 4, 1 and 1 levels and shrink 3, 0, 0 and 1 times
    R1, R3 = POOL_RINGS[0], POOL_RINGS[3]
    (x,) = R1.gens
    one = Ideal(R1, (R1.one,))
    for module in (
        FrobModule(Ideal(R1, (x**6,)), one, x**6),
        FrobModule(Ideal(R1, (x**8,)), one, x**9),
        FrobModule(
            Ideal(R3, (R3("2*x+y"),)),
            Ideal(R3, (R3("2*x+y"), R3("2*x"))),
            R3("2*x^2*y^3+2*x*y^4+2*y^5"),
        ),
        FrobModule.principal(R3("x^4*y")),
    ):
        _check(module)


def test_the_dict_root_and_bracket_invert_each_other():
    # root(I^[q]) = I, and root((x^3 + y^3)) = (x, y) at q = 2
    syms = sympy.symbols("x y")
    x, y = syms
    gens = [x**3 + 2 * x * y, y**2 + 1]
    for p in (2, 3):
        bracket = _bracket(gens, syms, p, p)
        assert _key(_root(bracket, syms, p, p), syms, p) == _key(gens, syms, p)
    assert _key(_root([x**3 + y**3], syms, 2, 2), syms, 2) == _key([x, y], syms, 2)
