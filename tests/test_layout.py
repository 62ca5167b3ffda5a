"""Package-wide source rules, kept by an AST scan of ``src/fsing``.

Every failure the package reports is a typed :class:`fsing.FSingError`.
An ``assert`` statement vanishes under ``python -O`` and an
``AssertionError`` is no ``FSingError``, so neither appears in the package.
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
