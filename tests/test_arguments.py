"""Argument rules: one implementation each, and a typed error for every bad argument.

``check_int`` and ``check_member`` (in :mod:`fsing.errors`) and
``check_degree`` (in :mod:`fsing.polyring`) are the only places that
decide whether an argument is an integer in range, a value of the right
type and ring, or a degree inside the guard.  An AST scan keeps it so.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import fsing
from fsing import (
    DomainError,
    FrobModule,
    Ideal,
    ResourceError,
    Ring,
    RingMismatchError,
    buchberger,
    fpt_bracket,
    ideal_root,
    iterate_exponent,
    je_chain,
    minimality_vs_fpt,
    normal_form,
    nu,
    poly_root,
)
from fsing import test_ideal as tau
from fsing.errors import check_int, check_member
from fsing.oracle import (
    bracket_membership_oracle,
    monomial_root_oracle,
    smallest_ideal_bruteforce,
)

R = Ring(p=2, var_names=("x", "y"))
R3 = Ring(p=3, var_names=("x", "y"))
x, y = R.gens
I = Ideal(R, (x,))

HELPERS = {"check_int", "check_member", "check_degree"}
# Sites that keep a rule inline for speed, by qualified name; the site
# says why in a comment.  The per-generator and per-divisor loops of
# Ideal(), buchberger and poly_division measured at parity through
# check_member, so only the per-term exponent check stays.
INLINE = {"Ring._checked"}


def _tests_a_rule(test: ast.expr) -> bool:
    # isinstance(..., int) or a `.ring !=` comparison anywhere in the test
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                return True
        if isinstance(node, ast.Compare) and any(
            isinstance(op, ast.NotEq) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "ring" for o in operands):
                return True
    return False


def _names_the_guard(node: ast.expr) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == "MAX_TOTAL_DEGREE")
        or (isinstance(n, ast.Attribute) and n.attr == "MAX_TOTAL_DEGREE")
        for n in ast.walk(node)
    )


def rule_copies(tree: ast.AST) -> set[str]:
    """Qualified names of the scopes holding a hand-written copy of a rule."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = ".".join(scope) or "<module>"
            if scope and scope[-1] in HELPERS:
                pass
            elif isinstance(child, ast.If) and _tests_a_rule(child.test) and any(
                isinstance(n, ast.Raise) for stmt in child.body for n in ast.walk(stmt)
            ):
                found.add(name)
            elif isinstance(child, ast.Compare) and _names_the_guard(child):
                found.add(name)
            visit(child, scope)

    visit(tree, ())
    return found


def test_each_argument_rule_has_one_implementation():
    package = pathlib.Path(fsing.__file__).parent
    copies = set()
    for path in sorted(package.glob("*.py")):
        copies |= rule_copies(ast.parse(path.read_text()))
    assert copies == INLINE


@pytest.mark.parametrize(
    "source",
    [
        "def f(e):\n    if not isinstance(e, int) or e < 1:\n        raise E()",
        "def f(e):\n    if isinstance(e, (int, float)):\n        raise E()",
        "class C:\n    def f(self, g):\n        if g.ring != self.ring:\n            raise E()",
        "def f(d):\n    return d > MAX_TOTAL_DEGREE",
        "def f(d):\n    while d <= polyring.MAX_TOTAL_DEGREE:\n        d += 1",
    ],
)
def test_the_scan_finds_a_hand_written_copy(source):
    assert rule_copies(ast.parse(source))


def test_the_scan_passes_checks_that_do_not_raise():
    source = (
        "def f(g, other):\n"
        "    if isinstance(g, int):\n        return 0\n"
        "    if other.ring != g.ring:\n        return False\n"
        "    check_degree(MAX_TOTAL_DEGREE)\n"
    )
    assert rule_copies(ast.parse(source)) == set()


# Public entry points called with an argument of the wrong type.
WRONG_TYPES = {
    "ideal_root(poly)": lambda: ideal_root(x, 1),
    "poly_root(ideal)": lambda: poly_root(I, 1),
    "Ideal.intersection(poly)": lambda: I.intersection(x),
    "Ideal.normal_form(int)": lambda: I.normal_form(1),
    "Ideal.contains(int)": lambda: I.contains(1),
    "Ideal.scale(int)": lambda: I.scale(1),
    "Ideal.scale(ideal)": lambda: I.scale(I),
    "Ideal.colon(ideal)": lambda: I.colon(I),
    "FrobModule.validate(poly, ideal, poly)": lambda: FrobModule.validate(x, I, x),
    "FrobModule.validate(ideal, ideal, ideal)": lambda: FrobModule.validate(I, I, I),
    "test_ideal(ideal)": lambda: tau(I, 1, 1),
    "nu(ideal)": lambda: nu(I, 1),
    "buchberger([int])": lambda: buchberger([1], R),
    "normal_form(f, [ideal])": lambda: normal_form(x, [I]),
    "Ideal(ring, [int])": lambda: Ideal(R, (1,)),
    "Poly + str": lambda: x + "y",
    "je_chain(str)": lambda: je_chain("x", 2),
    "je_chain(int)": lambda: je_chain(3, 2),
    "minimality_vs_fpt(str)": lambda: minimality_vs_fpt("x"),
    "FrobModule.principal(str)": lambda: FrobModule.principal("x"),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_a_wrong_argument_type_raises_domain_error(call):
    with pytest.raises(DomainError, match="must be of type"):
        call()


# The same entry points with an argument of another ring.
WRONG_RINGS = {
    "Ideal.intersection": lambda: I.intersection(Ideal(R3, (R3("x"),))),
    "Ideal.normal_form": lambda: I.normal_form(R3("x")),
    "Ideal.scale": lambda: I.scale(R3("x")),
    "FrobModule.validate": lambda: FrobModule.validate(Ideal(R3, ()), I, x),
    "buchberger": lambda: buchberger([R3("x")], R),
    "normal_form": lambda: normal_form(x, [R3("x")]),
    "Ideal()": lambda: Ideal(R, (R3("x"),)),
}


@pytest.mark.parametrize("call", WRONG_RINGS.values(), ids=WRONG_RINGS)
def test_a_wrong_ring_raises_ring_mismatch(call):
    with pytest.raises(RingMismatchError, match="belongs to"):
        call()


HUGE = 10**5000  # more digits than Python converts to text by default


@pytest.mark.parametrize(
    "call",
    [
        lambda: I.bracket_power(20000),
        lambda: x.frobenius_power(20000),
        lambda: x**HUGE,
        lambda: R.monomial((HUGE, 0)),
    ],
    ids=["bracket_power", "frobenius_power", "pow", "monomial"],
)
def test_the_degree_guard_refuses_degrees_too_long_to_print(call):
    with pytest.raises(ResourceError, match="degree guard"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: x**-HUGE,
        lambda: x.frobenius_power(-HUGE),
        lambda: R.monomial((-HUGE, 0)),
        lambda: R.constant(1.5),
    ],
    ids=["pow", "frobenius_power", "monomial", "coefficient"],
)
def test_no_message_prints_an_unbounded_integer(call):
    with pytest.raises(DomainError):
        call()


def test_a_ring_with_a_huge_q_still_names_itself():
    # q = 2^20000 has more digits than Python converts to text
    big = Ring(p=2, var_names=("x",), s=20000)
    assert str(big) == "F_2[x] (grevlex, q=2^20000)"
    with pytest.raises(RingMismatchError, match=r"q=2\^20000"):
        Ideal(Ring(p=2, var_names=("x",)), (big.gens[0],))
    with pytest.raises(DomainError, match="bad exponent tuple"):
        big.monomial((-1,))


# A bool is an int to Python; as a level, count, step or coefficient it is
# a mistake, and each of these calls used to run with True read as 1 or
# False as 0.
BOOLS = {
    "poly_root(f, True)": lambda: poly_root(x**5 * y**3 + x * y, True),
    "ideal_root(I, True)": lambda: ideal_root(I, True),
    "Ideal.bracket_power(True)": lambda: I.bracket_power(True),
    "Poly.frobenius_power(True)": lambda: x.frobenius_power(True),
    "Poly ** True": lambda: x**True,
    "Ring(s=True)": lambda: Ring(p=2, var_names=("x",), s=True),
    "Ring(p=True)": lambda: Ring(p=True, var_names=("x",)),
    "Ring.constant(True)": lambda: R.constant(True),
    "Ring.monomial(coeff=True)": lambda: R.monomial((1, 0), True),
    "Ring.poly({m: True})": lambda: R.poly({(1, 0): True}),
    "minimalize(iteration_budget=False)": lambda: FrobModule.validate(
        Ideal(R, ()), Ideal(R, (R.one,)), x
    ).minimalize(iteration_budget=False),
    "test_ideal(f, True, 1)": lambda: tau(x * y, True, 1),
    "nu(f, True)": lambda: nu(x * y, True),
    "je_chain(f, True)": lambda: je_chain(x * y, True),
    "fpt_bracket(f, True)": lambda: fpt_bracket(x * y, True),
    "monomial_root_oracle(m, 2, True)": lambda: monomial_root_oracle((5,), 2, True),
    "iterate_exponent(True, 1)": lambda: iterate_exponent(True, 1),
}


@pytest.mark.parametrize("call", BOOLS.values(), ids=BOOLS)
def test_a_bool_is_no_integer(call):
    with pytest.raises(DomainError, match=r"must be an integer.*, got (True|False)$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: R.monomial((True, 0)),
        lambda: R.monomial((0, False)),
        lambda: R.poly({(True, 1): 1}),
        lambda: R.poly({(1, 0): 1, (False, True): 1}),
    ],
    ids=["monomial-true", "monomial-false", "poly", "poly-second-term"],
)
def test_a_bool_is_no_exponent(call):
    with pytest.raises(DomainError, match="^bad exponent tuple"):
        call()


@pytest.mark.parametrize("q", [1, 0, -2, 2.0, "2"])
def test_iterate_exponent_needs_a_frobenius_power(q):
    # q = 1 divided by zero, and q = 0 gave a number
    with pytest.raises(DomainError, match=r"^the Frobenius power q must be an integer >= 2"):
        iterate_exponent(q, 2)


def test_a_bool_exponent_names_no_coefficient():
    assert x.coeff((1, 0)) == 1
    assert x.coeff((True, 0)) == 0
    assert R.one.coeff((False, False)) == 0


def test_check_int_message():
    with pytest.raises(DomainError, match=r"^the level must be an integer >= 1, got 0$"):
        check_int(0, "the level", 1)
    with pytest.raises(DomainError, match=r"^a count must be an integer, got 'x'$"):
        check_int("x", "a count")
    with pytest.raises(DomainError, match="too long to print"):
        check_int(-HUGE, "the level", 0)
    check_int(HUGE, "the level", 0)


def test_check_member_message():
    with pytest.raises(DomainError, match=r"^the ideal must be of type Ideal, got Poly$"):
        check_member(x, Ideal, "the ideal")
    with pytest.raises(RingMismatchError, match=r"^the element belongs to F_3"):
        check_member(R3("x"), type(x), "the element", R)
    check_member(x, type(x), "the element", Ring(p=2, var_names=("x", "y")))


@pytest.mark.parametrize(
    "call",
    [
        lambda: smallest_ideal_bruteforce(R("x^3"), 1.5, 3),
        lambda: smallest_ideal_bruteforce(R("x^3"), 0, 3),
        lambda: monomial_root_oracle((5,), 2, 1.5),
        lambda: monomial_root_oracle((5,), 2, 0),
        lambda: bracket_membership_oracle(x, -1),
        lambda: bracket_membership_oracle(x, 0.5),
    ],
    ids=["bruteforce-float", "bruteforce-zero", "floor-float", "floor-zero",
         "bracket-negative", "bracket-float"],
)
def test_the_oracles_take_integer_levels(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()
