"""Exception hierarchy shared by every module in the package.

The CLI maps these onto exit codes: domain and validation problems and
internal invariant failures exit 1, exhausted resource budgets exit 2,
unparseable input exits 3.

Each argument rule has one implementation, so every bad argument raises a
typed error with one wording:

- :func:`check_int` refuses a non-integer, or one below a least value,
  with :class:`DomainError`: ``"<what> must be an integer >= N, got V"``;
- :func:`check_member` refuses a value of the wrong type with
  :class:`DomainError` and one of another ring with
  :class:`RingMismatchError`;
- ``fsing.polyring.check_degree`` refuses a result above the total degree
  guard ``MAX_TOTAL_DEGREE`` with :class:`ResourceError`.

No message turns an unbounded integer into text: Python refuses to print
an int longer than ``sys.get_int_max_str_digits()``.
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


def check_int(value: Any, what: str, least: int | None = None) -> None:
    """Raise :class:`DomainError` unless ``value`` is an int but no bool, and
    >= ``least`` if given."""
    # a plain int passes the first test, so refusing bools costs it nothing
    kind = value.__class__
    if (kind is not int and (kind is bool or not isinstance(value, int))) or (
        least is not None and value < least
    ):
        bound = "" if least is None else f" >= {least}"
        try:
            shown = repr(value)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            shown = "a number too long to print"
        raise DomainError(f"{what} must be an integer{bound}, got {shown}")


def check_member(value: Any, kind: type, what: str, ring: Any = None) -> None:
    """Raise unless ``value`` is a ``kind`` (over ``ring``, when one is given).

    The wrong type raises :class:`DomainError`, the wrong ring
    :class:`RingMismatchError`.
    """
    if not isinstance(value, kind):
        raise DomainError(
            f"{what} must be of type {kind.__name__}, got {type(value).__name__}"
        )
    if ring is not None and value.ring is not ring and value.ring != ring:
        raise RingMismatchError(f"{what} belongs to {value.ring}, not {ring}")
