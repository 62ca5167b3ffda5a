"""Exact sparse polynomial arithmetic over a prime field.

A :class:`Ring` fixes the characteristic p, the Frobenius step s (the
Frobenius map raises to the power q = p**s), the variable names and the
monomial order.  The order is one integer key per monomial, a fixed
weighted sum of its exponents (:meth:`Ring.monomial_key`), and that key
stands for the monomial itself: an element of F_p[x_1, ..., x_n] is a
dict mapping order keys to coefficients reduced into [1, p-1].  The zero
polynomial is the empty dict, so every polynomial has exactly one
representation.  Keys are additive and linear in the exponents, so a
product of monomials is one integer addition, a Frobenius twist one
multiplication by q**e, and the order one integer comparison.  Every
sum is gathered by one accumulator, :func:`accumulate`; only the product
keeps the same rule inline.

Exponent tuples appear only at the boundary: :meth:`Ring.poly`,
:meth:`Ring.monomial` and the parser encode them, and :meth:`Poly.terms`,
:meth:`Poly.leading_monomial`, :meth:`Poly.coeff` and printing decode.
Inside, a ring's :class:`Codec` turns a key into its word, the exponents
packed one per 32-bit field.  The degree guard keeps every exponent below
2**31, so the top bit of each field is free, and one subtraction tests
divisibility of two words in every field at once.  All operations are
pure and exact; nothing here ever rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from struct import Struct, unpack_from
from typing import Callable, Collection, Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import DomainError, FSingError, ParseError, ResourceError, check_int, check_member

Exponents = tuple[int, ...]
MonomialKey = Callable[[Exponents], int]
# (leading key, leading word, inverse leading coefficient, tail degree
# excess, tail terms as (key, coefficient)); see Poly.reducer
Reducer = tuple[int, int, int, int, list[tuple[int, int]]]

# Guard against runaway exponent growth: any operation whose result would
# exceed this total degree raises ResourceError instead of computing it.
MAX_TOTAL_DEGREE = 10**6
# The least level e at which q**e exceeds the guard for every q >= 2.
FROBENIUS_LEVEL_CAP = MAX_TOTAL_DEGREE.bit_length()


def check_degree(degree: int) -> None:
    """Raise :class:`ResourceError` above the guard, without printing ``degree``."""
    if degree > MAX_TOTAL_DEGREE:
        raise ResourceError(f"a result would exceed the degree guard {MAX_TOTAL_DEGREE}")


def accumulate(acc: dict[int, int], p: int, items: Iterable[tuple[int, int]],
               scale: int = 1, shift: int = 0) -> None:
    """Add scale * x**shift * items, (key, coefficient) pairs, into the term
    dict ``acc`` in place, mod p, deleting zero sums: the one representation."""
    get = acc.get
    for k, c in items:
        k += shift
        v = (get(k, 0) + scale * c) % p
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


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


# Width of one exponent field of an order key, in bits.  The degree guard
# keeps every exponent and total degree at most MAX_TOTAL_DEGREE, far below
# 2**31, so no field carries into the next, even in a difference of two
# keys or a sum of two degrees, and keys rank monomials exactly.  Fields
# are whole 32-bit words, so a key decodes with one struct unpack.
_BITS = 32
_FIELD = 1 << _BITS
_MASK = _FIELD - 1
# A word decodes exactly, with every guard bit free, while each exponent
# and the total degree stay below this; the degree guard keeps every term
# far below it, and the signatures of groebner's engine are checked
# against it.
WORD_LIMIT = 1 << (_BITS - 1)


class Codec:
    """The order key of one ring, with its inverse: exponents to keys to words.

    The key of a monomial is a fixed weighted sum of its exponents, so it
    is additive, and it ranks monomials exactly as the order does.  With
    B = 2**32 and the variables x_1..x_n, the weights are

    - lex: B**(n-i) for x_i, so the key is the word that packs the
      exponents one per 32-bit field, x_1 in the top field;
    - grevlex: B**n - B**(i-1), so the key is ``d * B**n - P``, with d the
      total degree and P the word with x_1 in the bottom field, and
      ``d = ceil(key / B**n)``;
    - elim: B**n for x_1, then the grevlex weights of x_2..x_n, so the top
      field ``ceil(key / B**(n-1))`` holds x_1's exponent above the degree
      of the rest; the word puts x_1 in the bottom field, below the rest's.

    Keys are encoded and decoded with one struct pack or unpack.  Decoding
    is exact for every monomial within the degree guard, and for the lcm
    of two of them.

    The guard keeps each exponent below ``WORD_LIMIT`` = 2**31, so the top
    bit of every field is free.  With ``guard`` the sum of those bits,
    ``((b | guard) - a) & guard == guard`` holds exactly when word a
    divides word b, as no field borrows from the next.

    The conversions are closures, so hot loops can bind them: ``encode``
    (exponents to key, for exponents in [0, 2**32)), ``decode`` (key to
    exponents), ``word`` and ``key`` (key to word and back), ``degree``
    (key to total degree) and ``word_degree`` (word to total degree).
    ``weights[i]`` is the key of the i-th variable.  ``_words`` and
    ``_keys`` convert many keys to words and back, and ``columns`` unpacks
    many words into their exponents.
    """

    __slots__ = ("n", "guard", "weights", "encode", "decode", "word", "key", "degree",
                 "word_degree", "_fields", "_words", "_keys")

    def __init__(self, order: str, n: int):
        F = _BITS
        top = F * (n - 1)
        ones = sum(1 << (F * j) for j in range(n))
        self.guard = ones << (F - 1)
        size = 4 * n
        fields = Struct((">" if order == "lex" else "<") + "I" * n)
        pack, unpack, from_bytes = fields.pack, fields.unpack, int.from_bytes

        def word_degree(w: int) -> int:
            # the sum of the fields lands in the top one
            return ((w * ones) >> top) & _MASK

        if order == "lex":

            def decode(k: int) -> Exponents:
                return unpack(k.to_bytes(size, "big"))

            self.encode = lambda m: from_bytes(pack(*m), "big")
            self.word = self.key = lambda k: k
            self._words = self._keys = lambda keys: keys
            self.degree = word_degree
        elif order == "grevlex":
            # P = d * B**n - key lies in [0, B**n), so it is -key mod B**n
            S = F * n
            low = (1 << S) - 1

            def decode(k: int) -> Exponents:
                return unpack((-k & low).to_bytes(size, "little"))

            self.encode = lambda m: (sum(m) << S) - from_bytes(pack(*m), "little")
            self.word = lambda k: -k & low
            self._words = lambda keys: [-k & low for k in keys]
            self.key = lambda w: (word_degree(w) << S) - w
            self._keys = lambda words: [(((w * ones >> top) & _MASK) << S) - w for w in words]
            self.degree = lambda k: -(-k >> S)
        else:
            rest = (1 << top) - 1

            def word(k: int) -> int:
                return ((-k & rest) << F) + (-(-k >> top) >> F)

            def key(w: int) -> int:
                x = w & _MASK
                return (((x << F) + word_degree(w) - x) << top) - (w >> F)

            def degree(k: int) -> int:
                t = -(-k >> top)
                return (t >> F) + (t & _MASK)

            def decode(k: int) -> Exponents:
                return unpack(word(k).to_bytes(size, "little"))

            self.encode = lambda m: key(from_bytes(pack(*m), "little"))
            self.word, self.key, self.degree = word, key, degree
            self._words = lambda keys: list(map(word, keys))
            self._keys = lambda words: list(map(key, words))
        self.word_degree = word_degree
        self.decode = decode
        self.n = n
        self.weights = tuple(self.encode([int(j == i) for j in range(n)]) for i in range(n))
        # the field of each variable's exponent in a little-endian word
        self._fields = range(n - 1, -1, -1) if order == "lex" else range(n)

    def columns(self, words: Collection[int]) -> list[tuple[int, ...]]:
        """The exponents of many words at once, one tuple per variable.

        Each column lists its variable's exponents in the order of
        ``words``; all of them are unpacked in one pass.
        """
        n, size = self.n, 4 * self.n
        packed = map(int.to_bytes, words, repeat(size), repeat("little"))
        flat = unpack_from(f"<{n * len(words)}I", b"".join(packed))
        return [flat[j::n] for j in self._fields]

    def keys_of(self, columns: Sequence[Sequence[int]]) -> list[int]:
        """The keys of the monomials whose exponents ``columns`` lists, per variable."""
        w0 = self.weights[0]
        keys = [w0 * b for b in columns[0]]
        for w, col in zip(self.weights[1:], columns[1:]):
            keys = [k + w * b for k, b in zip(keys, col)]
        return keys

    def _below(self, words: list[int], Q: int) -> list[int]:
        # the words whose every field is below Q: adding WORD_LIMIT - Q to
        # each field sets its guard bit exactly when the field is at least
        # Q, and no field carries into the next.  Every field is below
        # WORD_LIMIT, so from there on every word is.
        if Q >= WORD_LIMIT:
            return words
        lift, G = (self.guard >> (_BITS - 1)) * (WORD_LIMIT - Q), self.guard
        return [w for w in words if not (w + lift) & G]

    def _split_masks(self, t: int) -> int:
        # the bits of every field that a shift right by t leaves from the
        # field itself (0 < t < 32)
        return (self.guard >> (_BITS - 1)) * (_MASK >> t)

    def _ranks(self, words: Sequence[int], t: int) -> list[int]:
        # ints that rank the low t bits of each field of the words as their
        # exponent tuples rank: t bits per variable, x_1's the highest
        low = (1 << t) - 1
        fields = iter(self._fields)
        s = next(fields) * _BITS
        ranks = [(w >> s) & low for w in words]
        for j in fields:
            s = j * _BITS
            ranks = [(r << t) | ((w >> s) & low) for r, w in zip(ranks, words)]
        return ranks

    def divides(self, a: int, b: int) -> bool:
        """Whether word a divides word b."""
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcms(self, a: int, words: Iterable[int]) -> list[int]:
        """The words of the lcms of word a with each of ``words``: the larger
        exponent per field, where the guard bits of one subtraction mark
        the fields in which a's exponent is at least the other's."""
        G, s = self.guard, _BITS - 1
        top = a | G
        return [b ^ ((a ^ b) & ((((top - b) & G) >> s) * _MASK)) for b in words]

    def lcm(self, a: int, b: int) -> int:
        """The word of the lcm of words a and b."""
        return self.lcms(a, (b,))[0]

    def gcd(self, a: int, b: int) -> int:
        """The word of the gcd of words a and b: per field, the sum less the
        larger exponent, with no carry or borrow between fields."""
        return a + b - self.lcm(a, b)


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
    def _codec(self) -> Codec:
        return Codec(self.order, self.n)

    def monomial_key(self) -> MonomialKey:
        """The order key: an int, additive in the exponents, that ranks
        monomials exactly as the ring's order does.  Polynomials store
        their terms under it.  It takes exponents in [0, 2**32)."""
        return self._codec.encode

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        check_int(c, "a coefficient")
        c %= self.p
        return Poly(self, {0: c}, 0) if c else Poly(self, {})

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "Poly":
        m = self._checked(tuple(exponents))
        k = self._codec.encode(m)
        check_int(coeff, "a coefficient")
        c = coeff % self.p
        return Poly(self, {k: c}, k, m) if c else Poly(self, {})

    @property
    def gens(self) -> tuple["Poly", ...]:
        return tuple(Poly(self, {k: 1}, k) for k in self._codec.weights)

    def _checked(self, m: Exponents) -> Exponents:
        # Kept inline, not check_int and check_degree: this runs once per
        # term of Ring.poly and Ring.monomial, and the two calls made the
        # monomial-heavy acceptance criterion 3 about 5% slower.  A sum of
        # nonnegative numbers is an int only if every term is; a bool sums
        # as one, so its type refuses it.
        if (len(m) != self.n or min(m) < 0 or not isinstance(degree := sum(m), int)
                or bool in map(type, m)):
            raise DomainError(f"bad exponent tuple for {self}")
        if degree > MAX_TOTAL_DEGREE:
            check_degree(degree)
        return m

    def poly(self, terms: Mapping[Exponents, int]) -> "Poly":
        """Build a polynomial from an exponent->coefficient mapping."""
        key = self._codec.encode
        clean: dict[int, int] = {}
        for m, c in terms.items():
            k = key(self._checked(tuple(m)))
            check_int(c, "a coefficient")
            accumulate(clean, self.p, ((k, c),))
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

    The term dict maps order keys to coefficients; it is private to the
    package and never mutated after construction.  Use :meth:`Ring.poly`
    or ring parsing to build values.  A caller that already knows the
    leading monomial's key may pass it as ``lm``, and its exponents as
    ``lead_exps``.
    """

    __slots__ = ("ring", "_terms", "_hash", "_lm", "_lead_exps", "_deg", "_reducer")

    def __init__(
        self,
        ring: Ring,
        terms: dict[int, int],
        lm: int | None = None,
        lead_exps: Exponents | None = None,
    ):
        self.ring = ring
        self._terms = terms
        self._hash: int | None = None
        self._lm = lm
        # the leading monomial's exponents, once known
        self._lead_exps = lead_exps
        self._deg: int | None = None
        self._reducer: Reducer | None = None

    # -- basic queries ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        # the key 0 is the monomial 1 alone
        return not any(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial.

        grevlex reads it off the leading key; the other orders read every
        term's degree off its key, without decoding it, and the result is
        cached.
        """
        if self._deg is None:
            if not self._terms:
                return -1
            degree = self.ring._codec.degree
            if self.ring.order == "grevlex":
                self._deg = degree(self._lead())
            else:
                self._deg = max(map(degree, self._terms))
        return self._deg

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def coeff(self, exponents: Iterable[int]) -> int:
        try:
            k = self.ring._codec.encode(self.ring._checked(tuple(exponents)))
        except FSingError:  # no monomial of this ring
            return 0
        return self._terms.get(k, 0)

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Yield (exponents, coefficient) pairs in descending term order."""
        decode = self.ring._codec.decode
        terms = self._terms
        for k in sorted(terms, reverse=True):
            yield decode(k), terms[k]

    def _lead(self) -> int:
        # the leading monomial's order key
        if self._lm is None:
            if not self._terms:
                raise DomainError("the zero polynomial has no leading monomial")
            self._lm = max(self._terms)
        return self._lm

    def leading_monomial(self) -> Exponents:
        if self._lead_exps is None:
            self._lead_exps = self.ring._codec.decode(self._lead())
        return self._lead_exps

    def reducer(self) -> Reducer:
        """This polynomial as a divisor, built once and cached.

        Holds the leading monomial's key and word (see :class:`Codec`), the
        inverse leading coefficient, the largest total degree of the other
        terms minus the leading one's (0 when there are none), and those
        other terms as ``(key, coefficient)`` pairs in dict order, a list
        that is never mutated.  grevlex keys rank by total degree first, so
        there the largest tail key gives the excess; the other orders read
        every tail term's degree.
        """
        if self._reducer is None:
            codec = self.ring._codec
            degree = codec.degree
            terms = self._terms
            lk = self._lead()
            lc = terms[lk]
            p = self.ring.p
            tail = list(terms.items())
            tail.remove((lk, lc))
            if not tail:
                excess = 0
            elif self.ring.order == "grevlex":
                excess = degree(max(tail)[0]) - degree(lk)
            else:
                excess = max([degree(k) for k, _ in tail]) - degree(lk)
            self._reducer = (lk, codec.word(lk), pow(lc, p - 2, p), excess, tail)
        return self._reducer

    def leading_coeff(self) -> int:
        return self._terms[self._lead()]

    def monic(self) -> "Poly":
        if not self._terms:
            return self
        lk = self._lead()
        lc = self._terms[lk]
        if lc == 1:
            return self
        # scaling by a unit keeps every monomial, and so the leading one
        p = self.ring.p
        inv = pow(lc, p - 2, p)
        return Poly(self.ring, {k: c * inv % p for k, c in self._terms.items()}, lk)

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
        out = dict(self._terms)
        accumulate(out, self.ring.p, self._coerce(other)._terms.items())
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly(self.ring, {k: p - c for k, c in self._terms.items()}, self._lm)

    def __sub__(self, other: "Poly | int") -> "Poly":
        out = dict(self._terms)
        accumulate(out, self.ring.p, self._coerce(other)._terms.items(), -1)
        return Poly(self.ring, out)

    def __rsub__(self, other: "Poly | int") -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | int") -> "Poly":
        other = self._coerce(other)
        if not self._terms or not other._terms:
            return Poly(self.ring, {})
        degree = self.total_degree() + other.total_degree()
        check_degree(degree)
        p = self.ring.p
        out: dict[int, int] = {}
        get = out.get
        right = other._terms.items()
        # the accumulator inline: one call per left term made this loop slower
        for k1, c1 in self._terms.items():
            for k2, c2 in right:
                k = k1 + k2
                v = (get(k, 0) + c1 * c2) % p
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        # over a field the leading terms multiply to the leading term, and
        # the top-degree parts to a nonzero part of the summed degree
        product = Poly(self.ring, out, self._lead() + other._lead())
        product._deg = degree
        return product

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
        power f**(q**e) but costs one pass over the terms: the order key is
        linear in the exponents, so each key is scaled by q**e, and so is
        the order between them.
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
        twist = Poly(self.ring, {k * Q: c for k, c in self._terms.items()}, self._lead() * Q)
        twist._deg = degree * Q
        return twist

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
    r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # no token at pos
            break
        kind = m.lastgroup
        tokens.append((kind, m[kind], pos))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} at position {pos}")
    tokens.append(("end", "", len(text)))
    return tokens


# A parenthesis-free term: (coefficient in [0, p), order key, total degree).
# A zero coefficient stands for the zero term, whatever the key.
Term = tuple[int, int, int]


class _PolyParser:
    """Recursive descent over ``expr := term (('+'|'-') term)*``.

    Multiplication must be explicit (``2*x``, never ``2x``), exponents are
    nonnegative integer literals after ``^``, and parentheses group freely.

    Numbers and variables are :data:`Term` triples, so a parenthesis-free
    power multiplies a key and a product adds two, each under the degree
    guard of the ``Poly`` operation it replaces.  A parenthesized group
    is a :class:`Poly`, and any product or power that involves one is
    ``Poly`` arithmetic.  Each sum is gathered into one dict in place, term
    after term, so the dict and its order are those of a chain of ``+``.
    """

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.p = ring.p
        self.weights = ring._codec.weights
        self.tokens = _tokenize(text)
        self.pos = 0

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
        out: dict[int, int] = {}
        kind, value, _ = self.peek()
        sign = 1
        while True:
            if kind == "op" and value in "+-":
                self.advance()
                sign = -1 if value == "-" else 1
            term = self.term()
            if isinstance(term, tuple):
                c, k, _ = term
                items = ((k, c),) if c else ()
            else:
                items = term._terms.items()
            accumulate(out, self.p, items, sign)
            kind, value, _ = self.peek()
            if not (kind == "op" and value in "+-"):
                return Poly(self.ring, out)

    def term(self) -> "Term | Poly":
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                factor = self.factor()
                if isinstance(result, tuple) and isinstance(factor, tuple):
                    c1, k1, d1 = result
                    c2, k2, d2 = factor
                    # Poly.__mul__ returns zero before its guard
                    if c1 and c2:
                        check_degree(d1 + d2)
                        result = (c1 * c2 % self.p, k1 + k2, d1 + d2)
                    else:
                        result = (0, 0, 0)
                else:
                    result = self.poly(result) * self.poly(factor)
            elif kind in ("num", "name") or (kind == "op" and value == "("):
                self.fail("missing '*' between factors")
            else:
                return result

    def factor(self) -> "Term | Poly":
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, _ = self.peek()
            if kind != "num":
                self.fail("exponent must be a nonnegative integer literal")
            self.advance()
            m = self.literal(value)
            if not isinstance(base, tuple):
                return base**m
            c, k, d = base
            if not m:
                return (1, 0, 0)
            # Poly.__pow__ returns zero before its guard
            if c:
                check_degree(d * m)
            return (pow(c, m, self.p), k * m, d * m)
        return base

    def poly(self, term: "Term | Poly") -> Poly:
        if not isinstance(term, tuple):
            return term
        c, k, _ = term
        return Poly(self.ring, {k: c}, k) if c else self.ring.zero

    def literal(self, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ResourceError(
                f"integer literal of {len(digits)} digits is too long"
            ) from None

    def atom(self) -> "Term | Poly":
        kind, value, _ = self.advance()
        if kind == "num":
            return (self.literal(value) % self.p, 0, 0)
        if kind == "name":
            try:
                idx = self.ring.var_names.index(value)
            except ValueError:
                raise ParseError(
                    f"unknown variable {value!r}; ring variables are "
                    f"{','.join(self.ring.var_names)}"
                ) from None
            return (1, self.weights[idx], 1)
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
