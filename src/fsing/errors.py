"""Exception hierarchy shared by every module in the package.

The CLI maps these onto exit codes: domain and validation problems and
internal invariant failures exit 1, exhausted resource budgets exit 2,
unparseable input exits 3.
"""

from __future__ import annotations

from typing import Any


class FSingError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(FSingError):
    """Operands belong to different rings (p, s, variables or order differ)."""


class DomainError(FSingError):
    """An operation was invoked outside its domain of definition."""


class ValidationError(FSingError):
    """A structural invariant failed; the message names a witness generator."""

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class InvariantError(FSingError):
    """An internal invariant that every correct computation keeps failed.

    Typed like every other failure, so callers and the CLI's batch mode
    report it and go on; it always means a bug in the package.
    """


class ParseError(FSingError):
    """Polynomial or ideal text could not be parsed."""


class ResourceError(FSingError):
    """A configured resource budget was exceeded.

    ``partial`` carries whatever intermediate data was available when the
    budget ran out, so callers can inspect how far the computation got.
    """

    def __init__(self, message: str, partial: Any = None):
        super().__init__(message)
        self.partial = partial
