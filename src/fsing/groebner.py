"""Decidable ideal arithmetic over F_p[x] via reduced Groebner bases.

The engine is Buchberger's algorithm with the standard pair filters (the
coprime-leading-monomial criterion and the lcm chain criterion) and the
normal selection strategy (smallest pair lcm first).  Every ideal exposes
its reduced basis, which is unique for a fixed monomial order, so ideal
equality, membership, intersection and quotients are all exact decisions.

The context variable ``MAX_SPAIRS`` caps the S-pairs of every basis
computation; exceeding it raises :class:`ResourceError` with the partial
basis.  Library callers set it with ``MAX_SPAIRS.set`` and undo that with
``MAX_SPAIRS.reset``; each thread keeps its own value.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Iterable, Sequence

from .errors import DomainError, InvariantError, ResourceError, RingMismatchError
from .polyring import Exponents, Poly, Ring

# Cap on S-pairs per basis computation, read once per buchberger call; the
# CLI's ``--budget-spairs`` sets it for one command.
MAX_SPAIRS: ContextVar[int] = ContextVar("MAX_SPAIRS", default=200_000)


def _monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def _monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _shift_mul(f: Poly, shift: Exponents, scale: int) -> dict[Exponents, int]:
    p = f.ring.p
    return {
        _monomial_mul(m, shift): (c * scale) % p for m, c in f._terms.items()
    }


def poly_division(
    f: Poly, divisors: Sequence[Poly], with_quotients: bool = True
) -> tuple[list[Poly], Poly]:
    """Multivariate division: ``f = sum(q_i * d_i) + r``.

    No term of the remainder is divisible by any divisor's leading
    monomial, and every ``q_i * d_i`` has leading monomial <= that of f.
    Divisors must be nonzero and share f's ring.
    """
    ring = f.ring
    p = ring.p
    key = ring.monomial_key()
    divs = []
    for d in divisors:
        if d.ring != ring:
            raise RingMismatchError("divisors must share the dividend's ring")
        if not d:
            raise DomainError("cannot divide by the zero polynomial")
        lm = d.leading_monomial()
        divs.append((d, lm, pow(d._terms[lm], p - 2, p)))
    quots: list[dict[Exponents, int]] | None = (
        [{} for _ in divs] if with_quotients else None
    )
    rem: dict[Exponents, int] = {}
    work = dict(f._terms)
    while work:
        m = max(work, key=key)
        c = work[m]
        for i, (d, lm, lc_inv) in enumerate(divs):
            if _monomial_divides(lm, m):
                shift = tuple(a - b for a, b in zip(m, lm))
                coef = c * lc_inv % p
                if quots is not None:
                    qd = quots[i]
                    v = (qd.get(shift, 0) + coef) % p
                    if v:
                        qd[shift] = v
                    elif shift in qd:
                        del qd[shift]
                for dm, dc in d._terms.items():
                    mm = _monomial_mul(shift, dm)
                    v = (work.get(mm, 0) - coef * dc) % p
                    if v:
                        work[mm] = v
                    elif mm in work:
                        del work[mm]
                break
        else:
            rem[m] = c
            del work[m]
    remainder = Poly(ring, rem)
    if quots is None:
        return [], remainder
    return [Poly(ring, qd) for qd in quots], remainder


def normal_form(f: Poly, divisors: Sequence[Poly]) -> Poly:
    """Remainder of f under division by ``divisors`` (no quotients kept)."""
    if not divisors:
        return f
    return poly_division(f, divisors, with_quotients=False)[1]


def _spoly(f: Poly, g: Poly) -> Poly:
    # both inputs monic, so the cancelling coefficients are 1
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _monomial_lcm(lf, lg)
    left = _shift_mul(f, tuple(a - b for a, b in zip(lcm, lf)), 1)
    right = _shift_mul(g, tuple(a - b for a, b in zip(lcm, lg)), 1)
    p = f.ring.p
    for m, c in right.items():
        v = (left.get(m, 0) - c) % p
        if v:
            left[m] = v
        elif m in left:
            del left[m]
    return Poly(f.ring, left)


def buchberger(gens: Iterable[Poly], ring: Ring) -> tuple[Poly, ...]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Returns monic, pairwise auto-reduced polynomials sorted by leading
    monomial, largest first; the empty tuple presents the zero ideal.
    """
    budget = MAX_SPAIRS.get()
    key = ring.monomial_key()

    basis: list[Poly] = []
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators must live in the stated ring")
        if g:
            basis.append(g.monic())
    if not basis:
        return ()

    # inter-reduce the input until stable; cheap and trims the pair queue
    while True:
        reduced: list[Poly] = []
        for g in basis:
            r = normal_form(g, reduced)
            if r:
                reduced.append(r.monic())
        if reduced == basis:
            break
        basis = reduced

    if any(g.is_constant() for g in basis):
        return (ring.one,)

    polys: list[Poly] = []       # all monic polynomials ever admitted
    lms: list[Exponents] = []    # their leading monomials
    current: list[int] = []      # indices forming the working basis
    pairs: set[tuple[int, int]] = set()

    def pair_lcm(i: int, j: int) -> Exponents:
        return _monomial_lcm(lms[i], lms[j])

    def update(h_idx: int) -> None:
        # Pair filtering on admitting a new element: the chain criterion
        # drops a candidate pair whose lcm factors through another pending
        # one, the product criterion drops coprime pairs, old pairs whose
        # lcm the newcomer strictly refines are pruned, and basis elements
        # whose leading monomial the newcomer divides retire.
        nonlocal pairs, current
        mh = lms[h_idx]
        candidates = list(current)
        kept: list[int] = []
        while candidates:
            g = candidates.pop()
            lcm_hg = pair_lcm(h_idx, g)
            coprime = lcm_hg == _monomial_mul(mh, lms[g])
            if coprime or not any(
                _monomial_divides(pair_lcm(h_idx, other), lcm_hg)
                for other in candidates + kept
            ):
                kept.append(g)
        new_pairs = {
            (g, h_idx)
            for g in kept
            if pair_lcm(h_idx, g) != _monomial_mul(mh, lms[g])
        }

        surviving: set[tuple[int, int]] = set()
        for i, j in pairs:
            lcm_ij = pair_lcm(i, j)
            if (
                not _monomial_divides(mh, lcm_ij)
                or pair_lcm(i, h_idx) == lcm_ij
                or pair_lcm(j, h_idx) == lcm_ij
            ):
                surviving.add((i, j))
        pairs = surviving | new_pairs

        current = [g for g in current if not _monomial_divides(mh, lms[g])]
        current.append(h_idx)

    for g in basis:
        polys.append(g)
        lms.append(g.leading_monomial())
        update(len(polys) - 1)

    processed = 0
    while pairs:
        processed += 1
        if processed > budget:
            raise ResourceError(
                f"S-pair budget of {budget} exceeded while computing a basis",
                partial=tuple(polys[i] for i in current),
            )
        i, j = min(pairs, key=lambda ij: key(pair_lcm(*ij)))
        pairs.discard((i, j))
        s = _spoly(polys[i], polys[j])
        if not s:
            continue
        h = normal_form(s, [polys[g] for g in current])
        if not h:
            continue
        if h.is_constant():
            return (ring.one,)
        polys.append(h.monic())
        lms.append(h.leading_monomial())
        update(len(polys) - 1)

    # tail-reduce each survivor against the rest; leading monomials are
    # already pairwise indivisible, so one pass yields the reduced basis
    final = [polys[g] for g in current]
    out: list[Poly] = []
    for pos, g in enumerate(final):
        others = final[:pos] + final[pos + 1 :]
        r = normal_form(g, others)
        if r:
            out.append(r.monic())
    out.sort(key=lambda h: key(h.leading_monomial()), reverse=True)
    return tuple(out)


class Ideal:
    """An ideal of a :class:`Ring`, canonicalized by its reduced basis.

    Generators equal to zero are dropped at construction.  The reduced
    basis is computed lazily and cached; equality, containment and all
    derived operations consult it.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: Ring, gens: Iterable[Poly] = ()):
        self.ring = ring
        kept: list[Poly] = []
        for g in gens:
            if not isinstance(g, Poly):
                raise TypeError("ideal generators must be polynomials")
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("generators must share the ideal's ring")
            if g._terms:
                kept.append(g)
        self.gens: tuple[Poly, ...] = tuple(kept)
        self._gb: tuple[Poly, ...] | None = None

    # -- canonical basis ------------------------------------------------

    def groebner(self) -> tuple[Poly, ...]:
        """The reduced Groebner basis (cached after the first call)."""
        if self._gb is None:
            self._gb = buchberger(self.gens, self.ring)
        return self._gb

    def canonical(self) -> "Ideal":
        """The same ideal presented by its reduced basis."""
        out = Ideal(self.ring, self.groebner())
        out._gb = self._gb
        return out

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.groebner()

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def normal_form(self, f: Poly) -> Poly:
        if f.ring != self.ring:
            raise RingMismatchError("element must share the ideal's ring")
        return normal_form(f, self.groebner())

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def __le__(self, other: "Ideal") -> bool:
        """Containment: every generator reduces to zero modulo ``other``."""
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatchError("cannot compare ideals of different rings")
        return all(other.contains(g) for g in self.gens)

    def __ge__(self, other: "Ideal") -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return other.__le__(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            return False
        return self.groebner() == other.groebner()

    __hash__ = None  # type: ignore[assignment]

    # -- constructions -----------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatchError("cannot add ideals of different rings")
        return Ideal(self.ring, self.gens + other.gens)

    def scale(self, f: Poly) -> "Ideal":
        """The product ideal f * I."""
        if f.ring != self.ring:
            raise RingMismatchError("scalar must share the ideal's ring")
        return Ideal(self.ring, tuple(f * g for g in self.gens))

    def bracket_power(self, e: int) -> "Ideal":
        """The ideal generated by the q**e-th powers of the generators.

        Well defined (independent of the chosen generators) because the
        Frobenius map is flat here.  A cached reduced basis transfers: the
        q**e-power map fixes coefficients, scales exponents, and preserves
        divisibility, the term order, monic-ness and auto-reducedness.
        """
        if e < 0:
            raise DomainError("bracket powers take nonnegative levels")
        if e == 0:
            return self
        out = Ideal(self.ring, tuple(g.frobenius_power(e) for g in self.gens))
        if self._gb is not None:
            out._gb = tuple(g.frobenius_power(e) for g in self._gb)
        return out

    def intersection(self, other: "Ideal") -> "Ideal":
        """Intersection via the auxiliary-variable elimination trick."""
        if other.ring != self.ring:
            raise RingMismatchError("cannot intersect ideals of different rings")
        if not self.gens or not other.gens:
            return Ideal(self.ring, ())
        ext = _extended_ring(self.ring)
        t = ext.gens[0]
        one_minus_t = ext.one - t
        lifted = [t * _lift(g, ext) for g in self.gens]
        lifted += [one_minus_t * _lift(g, ext) for g in other.gens]
        basis = buchberger(lifted, ext)
        kept = [
            _project(h, self.ring)
            for h in basis
            if h.leading_monomial()[0] == 0
        ]
        return Ideal(self.ring, kept)

    def colon(self, f: Poly) -> "Ideal":
        """The quotient (I : f) = {g : g*f in I}; f must be nonzero."""
        if f.ring != self.ring:
            raise RingMismatchError("quotient divisor must share the ring")
        if not f:
            raise DomainError("ideal quotient by the zero polynomial")
        inter = self.intersection(Ideal(self.ring, (f,)))
        out: list[Poly] = []
        for g in inter.gens:
            quots, rem = poly_division(g, [f])
            if rem:
                raise InvariantError(
                    "intersection with a principal ideal must be divisible "
                    "by its generator"
                )
            out.append(quots[0])
        return Ideal(self.ring, out)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self) -> str:
        return f"<Ideal {self} of {self.ring}>"


def _extended_ring(ring: Ring) -> Ring:
    name = "_t"
    k = 0
    while name in ring.var_names:
        name = f"_t{k}"
        k += 1
    return Ring(p=ring.p, var_names=(name,) + ring.var_names, s=ring.s, order="elim")


def _lift(g: Poly, ext: Ring) -> Poly:
    return Poly(ext, {(0,) + m: c for m, c in g._terms.items()})


def _project(g: Poly, base: Ring) -> Poly:
    terms: dict[Exponents, int] = {}
    for m, c in g._terms.items():
        if m[0] != 0:
            raise InvariantError("projection applied to a term with the aux variable")
        terms[m[1:]] = c
    return Poly(base, terms)
