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
