"""Package-wide source rules, kept by an AST scan of ``src/fsing``.

Every failure the package reports is a typed :class:`fsing.FSingError`.
An ``assert`` statement vanishes under ``python -O`` and an
``AssertionError`` is no ``FSingError``, so neither appears in the package.

The oracles share no code with the fast paths, so ``oracle.py`` reads
polynomials only through their public surface (``terms()``,
``leading_monomial()`` and the like): no private attribute such as the
key-indexed ``_terms``, no reducer record and no order-key codec.  The
other direction, that no module but ``cli.py`` imports ``fsing.oracle``,
is kept by the AST scan of ``tests/test_oracle.py``
(``test_only_the_cli_imports_the_oracles``, with planted imports in
``test_oracle_import_detector``).

Every polynomial has one representation: a dict of order keys to
coefficients in [1, p-1], with zero sums deleted.  ``polyring.accumulate``
keeps that rule for every sum, and only the three hot loops that keep it
inline, ``Poly.__mul__``, ``poly_division`` and ``groebner._spoly``,
delete from a dict themselves.  ``oracle.py`` keeps its own arithmetic
and is not scanned.

Two more rules keep one implementation per operation: only
``poly_division``, the function ``bench/tracing.py`` counts, pops pending
keys from a heap, and ``Codec.lcms`` alone compares exponent fields
through the guard bits, for the engine's J-pairs, ``Codec.lcm`` and
``Codec.gcd`` alike.

Frobenius roots decide a unit by one degree bound: ``Codec._below`` alone
holds the guard-bit test "every field below Q", and ``frobroot`` reaches
the bound only through ``_unit_by_degree``.  Every characteristic takes
the same root split: no function compares a characteristic ``.p`` with a
literal.

Every test-ideal chain is one descent: in ``testideals.py`` only
``_Descent.step`` names ``shrink_step``, so ``test_ideal``, ``je_chain``
and ``nu`` all step through it.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Callable

import pytest

import fsing


def untyped_failures(source: str) -> list[int]:
    """Lines of the ``assert`` statements and ``AssertionError`` names in ``source``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    )


def test_every_failure_is_typed():
    package = pathlib.Path(fsing.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := untyped_failures(path.read_text()))
    }
    assert found == {}


@pytest.mark.parametrize(
    "source, lines",
    [
        ("def f(x):\n    assert x > 0\n    return x", [2]),
        ("def f():\n    raise AssertionError('unreachable')", [2]),
        ("def f(g):\n    try:\n        g()\n    except AssertionError:\n        pass", [4]),
    ],
)
def test_the_scan_finds_a_leftover(source, lines):
    assert untyped_failures(source) == lines


def test_the_scan_reads_code_not_text():
    source = 'def f():\n    """Never raises AssertionError; no assert here."""\n'
    assert untyped_failures(source) == []


# Names that reach the key-indexed representation without a leading underscore.
REPRESENTATION = {"reducer", "monomial_key", "Codec"}


def representation_reads(source: str) -> list[int]:
    """Lines of ``source`` that touch a private attribute, the reducer record or the codec."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (private(node.attr) or node.attr in REPRESENTATION):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            private(alias.name) or alias.name in REPRESENTATION for alias in node.names
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_oracles_read_only_the_public_surface():
    package = pathlib.Path(fsing.__file__).parent
    assert representation_reads((package / "oracle.py").read_text()) == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("def f(g):\n    return list(g._terms)", [2]),
        ("def f(g):\n    return g._lm", [2]),
        ("def f(g):\n    x = 1\n    return g.reducer()[0]", [3]),
        ("def f(g):\n    return g._reducer", [2]),
        ("def f(r, k):\n    return r._codec.decode(k)", [2]),
        ("def f(r, m):\n    return r.monomial_key()(m)", [2]),
        ("from .polyring import _MASK, Poly\n", [1]),
        ("from .polyring import Codec\n", [1]),
    ],
)
def test_the_representation_scan_finds_a_private_read(source, lines):
    assert representation_reads(source) == lines


def test_the_representation_scan_passes_public_reads():
    source = (
        "def f(g):\n"
        '    """Reads g._terms? No: only terms()."""\n'
        "    return [m for m, _ in g.terms()] + [g.leading_monomial(), g.ring.__class__]\n"
    )
    assert representation_reads(source) == []


# The functions that may delete a key from a term dict: the accumulator and
# the three hot loops that keep it inline.
TERM_WRITERS = {
    ("polyring.py", "accumulate"),
    ("polyring.py", "Poly.__mul__"),
    ("groebner.py", "poly_division"),
    ("groebner.py", "_spoly"),
}


def functions_where(source: str, hit: Callable[[ast.AST], bool]) -> set[str]:
    """Qualified names of the functions of ``source`` that hold a node for
    which ``hit`` is true (a nested function's nodes count for it alone)."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def package_functions_where(hit: Callable[[ast.AST], bool]) -> set[tuple[str, str]]:
    """(file, qualified name) of the functions of ``src/fsing`` but ``oracle.py``
    that hold a node for which ``hit`` is true."""
    package = pathlib.Path(fsing.__file__).parent
    return {
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        if path.name != "oracle.py"
        for name in functions_where(path.read_text(), hit)
    }


def deletes(node: ast.AST) -> bool:
    """Whether ``node`` deletes from a dict: ``del d[k]``, ``d.pop(k)`` or ``d.popitem()``."""
    if isinstance(node, ast.Delete):
        return any(isinstance(target, ast.Subscript) for target in node.targets)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (node.func.attr == "popitem" or (node.func.attr == "pop" and bool(node.args)))
    )


def test_only_the_accumulator_and_three_hot_loops_delete_terms():
    assert package_functions_where(deletes) == TERM_WRITERS


@pytest.mark.parametrize(
    "source, found",
    [
        (
            "def accumulate(acc, k):\n    del acc[k]\n"
            "def _spoly(out, k):\n    if k in out:\n        del out[k]\n",
            {"accumulate", "_spoly"},
        ),
        ("class Poly:\n    def __sub__(self, out, k):\n        out.pop(k, None)\n",
         {"Poly.__sub__"}),
        ("def f(out):\n    def g():\n        out.popitem()\n    return g\n", {"f.g"}),
        ("def f(xs, ys):\n    del xs\n    return ys.pop()\n", set()),
    ],
    ids=["planted-function", "method-pop", "nested-popitem", "name-and-bare-pop"],
)
def test_the_scan_finds_a_planted_deletion(source, found):
    assert functions_where(source, deletes) == found


# Division is counted where it is called: ``bench/tracing.py`` wraps
# ``poly_division``.  So only that function pops pending order keys from a
# max-heap (``-heappop(heap)``), and the only other heap is the signature
# engine's J-pair queue; a private division loop would do work that no
# count sees.
HEAP_POPPERS = {("groebner.py", "poly_division"), ("groebner.py", "_g2v_step")}


def pops_heap(node: ast.AST) -> bool:
    """Whether ``node`` is a call of ``heappop`` or ``heapq.heappop``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "heappop") or (
        isinstance(func, ast.Attribute) and func.attr == "heappop"
    )


def pops_pending_key(node: ast.AST) -> bool:
    """Whether ``node`` is ``-heappop(...)``: a key off a max-heap of keys."""
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and pops_heap(node.operand)


def test_only_poly_division_pops_pending_keys():
    assert package_functions_where(pops_heap) == HEAP_POPPERS
    assert package_functions_where(pops_pending_key) == {("groebner.py", "poly_division")}


@pytest.mark.parametrize(
    "source, poppers, key_poppers",
    [
        ("from heapq import heappop\ndef _divide(heap):\n    return -heappop(heap)\n",
         {"_divide"}, {"_divide"}),
        ("import heapq\nclass Ideal:\n    def reduce(self, heap):\n"
         "        k = -heapq.heappop(heap)\n        return k\n",
         {"Ideal.reduce"}, {"Ideal.reduce"}),
        ("def _g2v_step(queue):\n    t, i, j = heappop(queue)\n    return t\n",
         {"_g2v_step"}, set()),
        ("def f(heap):\n    return -heap.pop()\n", set(), set()),
    ],
    ids=["planted-helper", "module-attribute", "pair-queue", "list-pop"],
)
def test_the_heap_scan_finds_a_planted_division(source, poppers, key_poppers):
    assert functions_where(source, pops_heap) == poppers
    assert functions_where(source, pops_pending_key) == key_poppers


def compares_fields(node: ast.AST) -> bool:
    """Whether ``node`` is ``((a - b) & guard) >> s``: the guard bits of one
    subtraction, which mark the fields where a's exponent is at least b's."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift)):
        return False
    left = node.left
    return (
        isinstance(left, ast.BinOp)
        and isinstance(left.op, ast.BitAnd)
        and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Sub)
                for side in (left.left, left.right))
    )


def calls(name: str) -> Callable[[ast.AST], bool]:
    """A test for a call of the method ``name``."""
    return lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name
    )


def test_the_codec_has_one_lcm_rule():
    # the engine's batched J-pair lcms, Codec.lcm and Codec.gcd share it
    assert package_functions_where(compares_fields) == {("polyring.py", "Codec.lcms")}
    assert package_functions_where(calls("lcms")) == {
        ("polyring.py", "Codec.lcm"),
        ("groebner.py", "_g2v_step"),
    }
    assert ("polyring.py", "Codec.gcd") in package_functions_where(calls("lcm"))


@pytest.mark.parametrize(
    "source, found",
    [
        ("class Codec:\n    def _at_least(self, a, b):\n"
         "        return ((((a | self.guard) - b) & self.guard) >> 31) * M\n",
         {"Codec._at_least"}),
        ("def _g2v_step(wa, words, G):\n"
         "    return [b ^ ((wa ^ b) & ((G & ((wa | G) - b)) >> 31) * M) for b in words]\n",
         {"_g2v_step"}),
        ("def divides(a, b, G):\n    return ((b | G) - a) & G == G\n", set()),
    ],
    ids=["old-helper", "inline-lcm", "divisibility"],
)
def test_the_field_scan_finds_a_planted_lcm(source, found):
    assert functions_where(source, compares_fields) == found


def adds_then_masks(node: ast.AST) -> bool:
    """Whether ``node`` is ``(a + b) & mask``: a sum read through the guard bits,
    which mark the fields that the addend carried past a bound."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Add)
                for side in (node.left, node.right))
    )


def test_the_codec_has_one_bound_test_on_fields():
    # the "every field below Q" test that picks a root's terms of floor 0
    assert package_functions_where(adds_then_masks) == {("polyring.py", "Codec._below")}
    assert package_functions_where(calls("_below")) == {("frobroot.py", "_root_gens")}


@pytest.mark.parametrize(
    "source, found",
    [
        ("def _root_gens(words, lift, G):\n    return [w for w in words if not (w + lift) & G]\n",
         {"_root_gens"}),
        ("class Codec:\n    def below(self, w, lift):\n        return self.guard & (lift + w)\n",
         {"Codec.below"}),
        ("def f(a, b, G):\n    return ((b | G) - a) & G == G\n", set()),
    ],
    ids=["inline-bound", "method-either-side", "divisibility"],
)
def test_the_bound_scan_finds_a_planted_test(source, found):
    assert functions_where(source, adds_then_masks) == found


def names_call(name: str) -> Callable[[ast.AST], bool]:
    """A test for a call of the module-level function ``name``."""
    return lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    )


def reads_degrees(node: ast.AST) -> bool:
    """Whether ``node`` reads a codec's ``degree`` or ``word_degree``."""
    return isinstance(node, ast.Attribute) and node.attr in ("degree", "word_degree")


def test_roots_reach_the_degree_bound_through_one_helper():
    source = (pathlib.Path(fsing.__file__).parent / "frobroot.py").read_text()
    assert functions_where(source, names_call("_unit_by_degree")) == {"_root_gens"}
    assert functions_where(source, reads_degrees) == {"_unit_by_degree"}


@pytest.mark.parametrize(
    "source, callers, readers",
    [
        ("def _root_gens(g):\n    return _unit_by_degree(g)\n"
         "def _unit_by_degree(g):\n    return g.ring._codec.word_degree(0)\n",
         {"_root_gens"}, {"_unit_by_degree"}),
        ("def _split_term(codec, k):\n    return codec.degree(k) > 3\n", set(), {"_split_term"}),
        ("def f(g):\n    return g.total_degree()\n", set(), set()),
    ],
    ids=["helper", "inline-degree", "other-name"],
)
def test_the_helper_scans_find_planted_reads(source, callers, readers):
    assert functions_where(source, names_call("_unit_by_degree")) == callers
    assert functions_where(source, reads_degrees) == readers


def compares_characteristic(node: ast.AST) -> bool:
    """Whether ``node`` compares an attribute ``.p`` with a literal, such as
    ``ring.p == 2`` or ``self.p in (2, 3)``: a branch on the characteristic."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]

    def literal(side: ast.AST) -> bool:
        if isinstance(side, (ast.Tuple, ast.List, ast.Set)):
            return all(isinstance(item, ast.Constant) for item in side.elts)
        return isinstance(side, ast.Constant)

    return any(isinstance(side, ast.Attribute) and side.attr == "p" for side in sides) and any(
        map(literal, sides)
    )


def test_one_root_split_for_every_characteristic():
    package = pathlib.Path(fsing.__file__).parent
    found = {
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        for name in functions_where(path.read_text(), compares_characteristic)
    }
    assert found == set()


@pytest.mark.parametrize(
    "source, found",
    [
        ("def _root_gens(ring, gens, e):\n    if ring.p == 2:\n"
         "        return _split_2(ring, gens, e)\n    return ()\n",
         {"_root_gens"}),
        ("class Codec:\n    def f(self, ring):\n        return 2 < ring.p\n", {"Codec.f"}),
        ("def f(ring):\n    return ring.p not in (2, 3)\n", {"f"}),
        ("def f(self, n):\n    return self.p >= PRIME_BOUND or n == 2\n", set()),
    ],
    ids=["dispatch", "method-literal-left", "tuple-of-literals", "no-literal"],
)
def test_the_characteristic_scan_finds_a_planted_branch(source, found):
    assert functions_where(source, compares_characteristic) == found


def names(name: str) -> Callable[[ast.AST], bool]:
    """A test for any reference to ``name``: a bare name or an attribute."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_one_descent_steps_every_test_ideal_chain():
    source = (pathlib.Path(fsing.__file__).parent / "testideals.py").read_text()
    assert functions_where(source, names("shrink_step")) == {"_Descent.step"}


@pytest.mark.parametrize(
    "source, found",
    [
        ("def je_chain(f, zero, unit):\n    return walk(partial(shrink_step, zero, f), unit)\n",
         {"je_chain"}),
        ("class _Descent:\n    def __call__(self, ds):\n"
         "        return frobmod.shrink_step(self.zero, self.f, self.unit)\n",
         {"_Descent.__call__"}),
        ("from .frobmod import shrink_step\n"
         "def je_chain(descent):\n    return walk(partial(descent.step, 1), descent.unit)\n",
         set()),
    ],
    ids=["own-walk", "module-attribute", "import-only"],
)
def test_the_descent_scan_finds_a_planted_step(source, found):
    assert functions_where(source, names("shrink_step")) == found
