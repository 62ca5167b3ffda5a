"""Exact sparse polynomial arithmetic over a prime field.

Elements of F_p[x_1, ..., x_n] are stored as dicts mapping exponent tuples
to coefficients reduced into [1, p-1]; the zero polynomial is the empty
dict, so every polynomial has exactly one representation.  A :class:`Ring`
fixes the characteristic p, the Frobenius step s (the Frobenius map raises
to the power q = p**s), the variable names and the monomial order.  The
order is one integer key per monomial, a fixed weighted sum of its
exponents (:meth:`Ring.monomial_key`), so the key of a product is the sum
of the keys.  All operations are pure and exact; nothing here ever rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, NoReturn

from .errors import DomainError, ParseError, ResourceError, check_int, check_member

Exponents = tuple[int, ...]
MonomialKey = Callable[[Exponents], int]
# (leading monomial, its key, inverse leading coefficient, tail degree
# excess, tail terms as (monomial, coefficient, key)); see Poly.reducer
Reducer = tuple[Exponents, int, int, int, tuple[tuple[Exponents, int, int], ...]]

# Guard against runaway exponent growth: any operation whose result would
# exceed this total degree raises ResourceError instead of computing it.
MAX_TOTAL_DEGREE = 10**6
# The least level e at which q**e exceeds the guard for every q >= 2.
FROBENIUS_LEVEL_CAP = MAX_TOTAL_DEGREE.bit_length()


def check_degree(degree: int) -> None:
    """Raise :class:`ResourceError` above the guard, without printing ``degree``."""
    if degree > MAX_TOTAL_DEGREE:
        raise ResourceError(f"a result would exceed the degree guard {MAX_TOTAL_DEGREE}")


ORDER_NAMES = ("grevlex", "lex", "elim")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# Miller-Rabin with the twelve prime bases 2..37 is exact below this bound,
# which is itself a strong pseudoprime to all of them (399165290221 *
# 798330580441); Ring refuses characteristics at or above it.
PRIME_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(m: int) -> bool:
    # Deterministic Miller-Rabin, exact for m < PRIME_BOUND.
    if m < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for w in small:
        if m % w == 0:
            return m == w
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in small:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# Width of one exponent field of an order key.  The degree guard keeps
# every exponent and total degree at most MAX_TOTAL_DEGREE, and
# 2**21 > 2 * MAX_TOTAL_DEGREE, so no field carries into the next, even in
# a difference of two keys, and keys rank monomials exactly.
_FIELD = 1 << 21


def _order_weights(order: str, n: int) -> tuple[int, ...]:
    # key(m) = sum(w_i * m_i) ranks monomials exactly as the named order.
    B = _FIELD
    if order == "grevlex":
        # total degree first, then the smaller exponent of the last
        # variable where two monomials differ
        return tuple(B**n - B**i for i in range(n))
    if order == "lex":
        return tuple(B ** (n - 1 - i) for i in range(n))
    # elim: the first variable's exponent first, then grevlex on the rest
    return (B**n,) + tuple(B ** (n - 1) - B ** (i - 1) for i in range(1, n))


@dataclass(frozen=True)
class Ring:
    """F_p[x_1..x_n] with a Frobenius step and a fixed monomial order.

    ``q = p**s`` is the power the Frobenius map raises to; the coefficient
    field is always F_p.  Rings compare by value, and cross-ring arithmetic
    raises :class:`RingMismatchError`.
    """

    p: int
    var_names: tuple[str, ...]
    s: int = 1
    order: str = "grevlex"

    def __post_init__(self) -> None:
        object.__setattr__(self, "var_names", tuple(self.var_names))
        check_int(self.p, "characteristic")
        if self.p >= PRIME_BOUND:
            raise DomainError(
                "characteristic is too large to certify as prime; "
                f"it must be below {PRIME_BOUND}"
            )
        if not _is_prime(self.p):
            raise DomainError(f"characteristic must be prime, got {self.p}")
        check_int(self.s, "Frobenius step", 1)
        if self.order not in ORDER_NAMES:
            raise DomainError(
                f"unknown monomial order {self.order!r}; choose from {ORDER_NAMES}"
            )
        if not self.var_names:
            raise DomainError("a ring needs at least one variable")
        seen = set()
        for name in self.var_names:
            if not _NAME_RE.match(name):
                raise DomainError(f"invalid variable name {name!r}")
            if name in seen:
                raise DomainError(f"duplicate variable name {name!r}")
            seen.add(name)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.var_names, self.s, self.order) == (
            other.p,
            other.var_names,
            other.s,
            other.order,
        )

    @cached_property
    def n(self) -> int:
        return len(self.var_names)

    @cached_property
    def q(self) -> int:
        return self.p**self.s

    @cached_property
    def _order_key(self) -> MonomialKey:
        w = _order_weights(self.order, self.n)
        return lambda m: sum(map(mul, w, m))

    def monomial_key(self) -> MonomialKey:
        """The order key: an int, additive in the exponents, that ranks
        monomials exactly as the ring's order does."""
        return self._order_key

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        check_int(c, "a coefficient")
        c %= self.p
        return Poly(self, {(0,) * self.n: c} if c else {})

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "Poly":
        m = self._checked(tuple(exponents))
        check_int(coeff, "a coefficient")
        c = coeff % self.p
        return Poly(self, {m: c}, m) if c else Poly(self, {})

    @cached_property
    def gens(self) -> tuple["Poly", ...]:
        n = self.n
        return tuple(self.monomial(int(j == i) for j in range(n)) for i in range(n))

    def _checked(self, m: Exponents) -> Exponents:
        # Kept inline, not check_int and check_degree: this runs once per
        # term of Ring.poly and Ring.monomial, and the two calls made the
        # monomial-heavy acceptance criterion 3 about 5% slower.  A sum of
        # nonnegative numbers is an int only if every term is.
        if len(m) != self.n or min(m) < 0 or not isinstance(degree := sum(m), int):
            raise DomainError(f"bad exponent tuple for {self}")
        if degree > MAX_TOTAL_DEGREE:
            check_degree(degree)
        return m

    def poly(self, terms: Mapping[Exponents, int]) -> "Poly":
        """Build a polynomial from an exponent->coefficient mapping."""
        clean: dict[Exponents, int] = {}
        for m, c in terms.items():
            m = self._checked(tuple(m))
            check_int(c, "a coefficient")
            c %= self.p
            if c:
                prev = clean.get(m, 0)
                tot = (prev + c) % self.p
                if tot:
                    clean[m] = tot
                elif m in clean:
                    del clean[m]
        return Poly(self, clean)

    def __call__(self, text: "str | int | Poly") -> "Poly":
        if isinstance(text, Poly):
            check_member(text, Poly, "the polynomial", self)
            return text
        if isinstance(text, int):
            return self.constant(text)
        if not isinstance(text, str):
            raise DomainError(
                "ring elements are built from text, integers or polynomials, "
                f"got {type(text).__name__}"
            )
        return parse_poly(self, text)

    def __str__(self) -> str:
        # q itself may be too long to print
        q = f", q={self.p}^{self.s}" if self.s > 1 else ""
        return f"F_{self.p}[{','.join(self.var_names)}] ({self.order}{q})"

    def __repr__(self) -> str:
        return (
            f"Ring(p={self.p}, var_names={self.var_names!r}, "
            f"s={self.s}, order={self.order!r})"
        )


class Poly:
    """Immutable sparse polynomial over its ring's prime field.

    The term dict is private to the package and never mutated after
    construction; use :meth:`Ring.poly` or ring parsing to build values.
    A caller that already knows the leading monomial may pass it as ``lm``.
    """

    __slots__ = ("ring", "_terms", "_hash", "_lm", "_reducer")

    def __init__(
        self, ring: Ring, terms: dict[Exponents, int], lm: Exponents | None = None
    ):
        self.ring = ring
        self._terms = terms
        self._hash: int | None = None
        self._lm = lm
        self._reducer: Reducer | None = None

    # -- basic queries ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def constant_term(self) -> int:
        return self._terms.get((0,) * self.ring.n, 0)

    def coeff(self, exponents: Iterable[int]) -> int:
        return self._terms.get(tuple(exponents), 0)

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Yield (exponents, coefficient) pairs in descending term order."""
        key = self.ring.monomial_key()
        for m in sorted(self._terms, key=key, reverse=True):
            yield m, self._terms[m]

    def leading_monomial(self) -> Exponents:
        if self._lm is None:
            if len(self._terms) == 1:
                self._lm = next(iter(self._terms))
            elif not self._terms:
                raise DomainError("the zero polynomial has no leading monomial")
            else:
                self._lm = max(self._terms, key=self.ring.monomial_key())
        return self._lm

    def reducer(self) -> Reducer:
        """This polynomial as a divisor, built once and cached.

        Holds the leading monomial, its order key, the inverse leading
        coefficient, the largest total degree of the other terms minus the
        leading one's (0 when there are none), and those other terms as
        ``(monomial, coefficient, key)`` triples.
        """
        if self._reducer is None:
            key = self.ring.monomial_key()
            lm = self.leading_monomial()
            p = self.ring.p
            tail = tuple((m, c, key(m)) for m, c in self._terms.items() if m != lm)
            lead_deg = sum(lm)
            excess = max((sum(m) for m, _, _ in tail), default=lead_deg) - lead_deg
            self._reducer = (lm, key(lm), pow(self._terms[lm], p - 2, p), excess, tail)
        return self._reducer

    def leading_coeff(self) -> int:
        return self._terms[self.leading_monomial()]

    def monic(self) -> "Poly":
        if not self._terms:
            return self
        lm = self.leading_monomial()
        lc = self._terms[lm]
        if lc == 1:
            return self
        # scaling by a unit keeps every exponent, and so the leading one
        p = self.ring.p
        inv = pow(lc, p - 2, p)
        return Poly(self.ring, {m: c * inv % p for m, c in self._terms.items()}, lm)

    # -- equality and hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            return self.ring.constant(other)
        check_member(other, Poly, "an operand", self.ring)
        return other

    def __add__(self, other: "Poly | int") -> "Poly":
        other = self._coerce(other)
        p = self.ring.p
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly(self.ring, {m: p - c for m, c in self._terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Poly | int") -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | int") -> "Poly":
        other = self._coerce(other)
        if not self._terms or not other._terms:
            return Poly(self.ring, {})
        check_degree(self.total_degree() + other.total_degree())
        p = self.ring.p
        out: dict[Exponents, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(map(add, m1, m2))
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def _small_pow(self, m: int) -> "Poly":
        # plain square-and-multiply for exponents below q
        result = self.ring.one
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def __pow__(self, m: int) -> "Poly":
        """Exact m-th power.

        The exponent is decomposed in base q so that each digit is handled
        by plain squaring and the digit positions by Frobenius twists; the
        two routes agree because the q-power map is a ring endomorphism.
        This keeps powers like f**(1 + q + q**2) sparse instead of dense.
        """
        check_int(m, "a power's exponent", 0)
        if m == 0:
            return self.ring.one
        if not self._terms:
            return self.ring.zero
        check_degree(self.total_degree() * m)
        q = self.ring.q
        digit_pows: dict[int, Poly] = {}
        result = self.ring.one
        level = 0
        while m:
            m, d = divmod(m, q)
            if d:
                if d not in digit_pows:
                    digit_pows[d] = self._small_pow(d)
                result = result * digit_pows[d].frobenius_power(level)
            level += 1
        return result

    def frobenius_power(self, e: int) -> "Poly":
        """Apply the e-fold Frobenius: every exponent is scaled by q**e.

        Coefficients are fixed because c**p == c in F_p.  Equals the plain
        power f**(q**e) but costs one pass over the terms.
        """
        check_int(e, "a Frobenius level", 0)
        if e == 0:
            return self
        degree = self.total_degree()
        if degree <= 0:  # zero and the constants are fixed
            return self
        # q >= 2 and 2**FROBENIUS_LEVEL_CAP > MAX_TOTAL_DEGREE, so the capped
        # power passes the guard only when it equals q**e
        Q = self.ring.q ** min(e, FROBENIUS_LEVEL_CAP)
        check_degree(degree * Q)
        return Poly(self.ring, {tuple(b * Q for b in m): c for m, c in self._terms.items()})

    # -- rendering ------------------------------------------------------

    def _term_str(self, m: Exponents, c: int) -> str:
        parts: list[str] = []
        if c != 1 or not any(m):
            parts.append(str(c))
        for name, e in zip(self.ring.var_names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(self._term_str(m, c) for m, c in self.terms())

    def __repr__(self) -> str:
        return f"<Poly {self} over {self.ring}>"


# -- parsing -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(
                    f"unexpected character {text[pos:].strip()[0]!r} at position {pos}"
                )
            break
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _PolyParser:
    """Recursive descent over ``expr := term (('+'|'-') term)*``.

    Multiplication must be explicit (``2*x``, never ``2x``), exponents are
    nonnegative integer literals after ``^``, and parentheses group freely.
    """

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0
        self.text = text

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> NoReturn:
        kind, value, at = self.peek()
        shown = value if kind != "end" else "end of input"
        raise ParseError(f"{message} (found {shown!r} at position {at})")

    def parse(self) -> Poly:
        result = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input after polynomial")
        return result

    def expr(self) -> Poly:
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        result = self.term()
        if sign < 0:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                nxt = self.term()
                result = result + nxt if value == "+" else result - nxt
            else:
                return result

    def term(self) -> Poly:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            elif kind in ("num", "name") or (kind == "op" and value == "("):
                self.fail("missing '*' between factors")
            else:
                return result

    def factor(self) -> Poly:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, _ = self.peek()
            if kind != "num":
                self.fail("exponent must be a nonnegative integer literal")
            self.advance()
            return base ** self.literal(value)
        return base

    def literal(self, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ResourceError(
                f"integer literal of {len(digits)} digits is too long"
            ) from None

    def atom(self) -> Poly:
        kind, value, _ = self.advance()
        if kind == "num":
            return self.ring.constant(self.literal(value))
        if kind == "name":
            try:
                idx = self.ring.var_names.index(value)
            except ValueError:
                raise ParseError(
                    f"unknown variable {value!r}; ring variables are "
                    f"{','.join(self.ring.var_names)}"
                ) from None
            return self.ring.gens[idx]
        if kind == "op" and value == "(":
            inner = self.expr()
            kind, value, _ = self.advance()
            if not (kind == "op" and value == ")"):
                raise ParseError("unbalanced parenthesis")
            return inner
        self.pos -= 1
        self.fail("expected a number, variable or parenthesized expression")


def parse_poly(ring: Ring, text: str) -> Poly:
    """Parse polynomial text in ``ring``; raises :class:`ParseError`."""
    if not text.strip():
        raise ParseError("empty polynomial text")
    try:
        return _PolyParser(ring, text).parse()
    except RecursionError:
        raise ParseError("polynomial text is nested too deeply") from None
