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
keeps that rule for every sum, and only the two hot loops that keep it
inline, ``Poly.__mul__`` and ``poly_division``, delete from a dict
themselves.  ``oracle.py`` keeps its own arithmetic and is not scanned.
"""

from __future__ import annotations

import ast
import pathlib

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
# the two hot loops that keep it inline.
TERM_WRITERS = {
    ("polyring.py", "accumulate"),
    ("polyring.py", "Poly.__mul__"),
    ("groebner.py", "poly_division"),
}


def deleting_functions(source: str) -> set[str]:
    """Qualified names of the functions of ``source`` that delete from a dict:
    ``del d[k]``, ``d.pop(k)`` or ``d.popitem()``."""
    found = set()

    def deletes(node: ast.AST) -> bool:
        if isinstance(node, ast.Delete):
            return any(isinstance(target, ast.Subscript) for target in node.targets)
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "popitem" or (node.func.attr == "pop" and bool(node.args)))
        )

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if deletes(child):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_accumulator_and_two_hot_loops_delete_terms():
    package = pathlib.Path(fsing.__file__).parent
    found = {
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        if path.name != "oracle.py"
        for name in deleting_functions(path.read_text())
    }
    assert found == TERM_WRITERS


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
    assert deleting_functions(source) == found
