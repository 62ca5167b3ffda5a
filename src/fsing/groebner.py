"""Decidable ideal arithmetic over F_p[x] via reduced Groebner bases.

The engine is the incremental signature-based algorithm G2V (Gao, Guan
and Volny, ISSAC 2010) with the cover criterion of GVW (Gao, Volny and
Wang, *Math. Comp.* 2016).  The single-term generators seed the basis
with their minimal monomials (Dickson's lemma) and form no pairs; when
every generator is a single term, that is the answer, and no division or
S-polynomial is computed.  The other generators join one at a time, in
increasing leading-monomial order.  Each one, f, is reduced by the basis
G so far.  From then on every new element h = u*f (mod G) carries its
signature lm(u), and the J-pairs of a new element with any element (the
S-polynomial, signed by its side of larger signature) are taken in
increasing signature, one per signature: the one with the smallest lcm.
Before it is reduced, a J-pair is dropped

- by the syzygy criterion, when its signature is divisible by a leading
  monomial of G, by the leading monomial of the principal syzygy of two
  new elements, or by the signature of an earlier zero reduction, since
  all of these lead elements of (G : f);
- by the cover criterion, when an element whose signature divides the
  J-pair's has, multiplied up to that signature, a leading monomial below
  the J-pair's lcm.  That element would also make the reduced J-pair
  singular top-reducible, so no such result is ever formed.

Reduction is regular: a reducer's multiple must have a strictly smaller
signature, which :func:`poly_division` enforces as one order-key bound
per divisor.  A nonzero result joins the new elements, and a unit ends the
computation at once.  After each generator, elements whose leading
monomial another one divides leave the basis; after the last, one
tail-reduction pass gives the reduced basis.  Division keeps its pending
terms in a heap of order keys, and each divisor's leading data and keyed
tail are cached on the polynomial (:meth:`Poly.reducer`).  Order keys are
additive, so signatures are compared as integer keys.  No reduction or
S-polynomial builds a term above ``MAX_TOTAL_DEGREE``; one that would
raises :class:`ResourceError`.  Every ideal exposes its reduced basis,
which is unique for a fixed monomial order, so ideal equality,
membership, intersection and quotients are all exact decisions.

Intersection owns the exact shortcuts and the one general route, the
auxiliary-variable elimination (Cox, Little and O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 4).  The shortcuts come first and never
compute a basis of their own: an empty side is the intersection;
monomial ideals meet in a side the other contains, else (m_i) ∩ (n_j) =
(lcm(m_i, n_j)); and an ideal inside one whose reduced basis is cached is
the intersection.  A quotient is (I : f) = (I ∩ (f)) / f: colon divides
each generator of the intersection by f, so the shortcuts serve it too.
Dividing by a monomial n gives (m_i / gcd(m_i, n)), and f in I with I's
basis cached gives (f) / f = (1).

The context variable ``MAX_SPAIRS`` caps the S-pairs of every basis
computation: the J-pairs that pass both criteria and are reduced.
Exceeding it raises :class:`ResourceError` whose partial is the basis so
far plus the generators not yet added, which together generate the ideal.
All-monomial bases spend no S-pairs, so no cap refuses them; a cap that
is not an integer >= 0 raises :class:`DomainError`.  Library callers set
it with ``MAX_SPAIRS.set`` and undo that with ``MAX_SPAIRS.reset``; each
thread keeps its own value.
"""

from __future__ import annotations

from contextvars import ContextVar
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    InvariantError,
    ResourceError,
    check_int,
    check_member,
)
from .polyring import Exponents, Poly, Ring, check_degree

# Cap on the J-pairs reduced per basis computation, read once per
# buchberger call; the CLI's ``--budget-spairs`` sets it for one command.
# All-monomial inputs spend none.
MAX_SPAIRS: ContextVar[int] = ContextVar("MAX_SPAIRS", default=200_000)


def _monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def _monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _add_minimal(monos: list[Exponents], m: Exponents) -> None:
    # keep ``monos`` the minimal generators of the monomial ideal they span;
    # divisibility is tested inline, as this runs once per pair of monomials
    for k in monos:
        if all(map(le, k, m)):
            return
    monos[:] = [k for k in monos if not all(map(le, m, k))]
    monos.append(m)


def poly_division(
    f: Poly,
    divisors: Sequence[Poly],
    with_quotients: bool = True,
    below: Sequence[int] | None = None,
) -> tuple[list[Poly], Poly]:
    """Multivariate division: ``f = sum(q_i * d_i) + r``.

    No term of the remainder is divisible by any divisor's leading
    monomial, and every ``q_i * d_i`` has leading monomial <= that of f.
    With ``below``, divisor i reduces only the terms whose order key is
    below ``below[i]``, and the remainder's other terms may be divisible
    by it; :func:`buchberger` reduces regularly this way.
    Divisors must be nonzero and share f's ring.  Raises
    :class:`ResourceError` before a reduction would build a term above
    ``MAX_TOTAL_DEGREE``.

    The pending terms sit in a max-heap of order keys with lazy deletion
    (Monagan and Pearce, 2011): a cancelled term stays in the heap and is
    skipped when popped.  Keys are additive, so a reduction term's key is
    the shift's key plus the divisor term's cached key.
    """
    ring = f.ring
    p = ring.p
    reducers = []
    for d in divisors:
        check_member(d, Poly, "a divisor", ring)
        if not d:
            raise DomainError("cannot divide by the zero polynomial")
        reducers.append(d.reducer())
    if below is not None and len(below) != len(reducers):
        raise DomainError("division needs one key bound per divisor")
    quots: list[dict[Exponents, int]] | None = (
        [{} for _ in reducers] if with_quotients else None
    )
    rem: dict[Exponents, int] = {}
    key = ring.monomial_key()
    monos = {key(m): m for m in f._terms}
    work = {k: f._terms[m] for k, m in monos.items()}
    heap = [-k for k in work]
    heapify(heap)
    if below is None and heap:
        below = [1 - heap[0]] * len(reducers)  # above every term reduced
    while heap:
        k = -heappop(heap)
        c = work.pop(k, 0)
        if not c:
            continue
        m = monos[k]
        for i, (lm, lk, lc_inv, excess, tail) in enumerate(reducers):
            # every weight is positive, so lm | m implies lk <= k
            if lk <= k < below[i] and _monomial_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        if excess > 0:
            check_degree(sum(m) + excess)
        shift = tuple(map(sub, m, lm))
        coef = c * lc_inv % p
        if quots is not None:
            # m strictly decreases, so each shift occurs once per divisor
            quots[i][shift] = coef
        sk = k - lk
        for dm, dc, dk in tail:
            nk = sk + dk
            v = work.get(nk)
            if v is None:
                monos[nk] = tuple(map(add, shift, dm))
                work[nk] = -coef * dc % p
                heappush(heap, -nk)
            else:
                v = (v - coef * dc) % p
                if v:
                    work[nk] = v
                else:
                    del work[nk]
    # terms leave the heap in decreasing order, so the first term each dict
    # received is its leading monomial
    remainder = Poly(ring, rem, next(iter(rem), None))
    if quots is None:
        return [], remainder
    return [Poly(ring, qd, next(iter(qd), None)) for qd in quots], remainder


def normal_form(f: Poly, divisors: Sequence[Poly]) -> Poly:
    """Remainder of f under division by ``divisors`` (no quotients kept)."""
    if not divisors:
        return f
    return poly_division(f, divisors, with_quotients=False)[1]


def _spoly(f: Poly, g: Poly) -> Poly:
    # both inputs monic, so the lcm terms cancel: only the shifted tails
    # are built, and only they must stay inside the degree guard
    lf, _, _, ef, tail_f = f.reducer()
    lg, _, _, eg, tail_g = g.reducer()
    lcm = _monomial_lcm(lf, lg)
    if tail_f:
        check_degree(sum(lcm) + ef)
    if tail_g:
        check_degree(sum(lcm) + eg)
    shift = tuple(map(sub, lcm, lf))
    out = {tuple(map(add, shift, m)): c for m, c, _ in tail_f}
    shift = tuple(map(sub, lcm, lg))
    p = f.ring.p
    for m, c, _ in tail_g:
        m = tuple(map(add, shift, m))
        v = (out.get(m, 0) - c) % p
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return Poly(f.ring, out)


def buchberger(gens: Iterable[Poly], ring: Ring) -> tuple[Poly, ...]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Returns monic, pairwise auto-reduced polynomials sorted by leading
    monomial, largest first; the empty tuple presents the zero ideal.
    When every generator is a single term, the basis is read off by
    divisibility alone: no pair is formed and no S-pair is spent.
    """
    budget = MAX_SPAIRS.get()
    check_int(budget, "the S-pair budget", 0)
    key = ring.monomial_key()
    gens = list(gens)
    for g in gens:
        check_member(g, Poly, "a generator", ring)
    # The single-term generators span a monomial ideal, whose reduced basis
    # is its minimal generators (Dickson's lemma).  In degree order none
    # divides one added before it, so none is added and then dropped; a
    # constant comes first and leaves the unit basis.
    minimal: list[Exponents] = []
    for m in sorted({m for g in gens if len(g._terms) == 1 for m in g._terms}, key=sum):
        _add_minimal(minimal, m)
    if minimal and not any(minimal[0]):
        return (ring.one,)
    minimal.sort(key=key, reverse=True)
    basis = [Poly(ring, {m: 1}, m) for m in minimal]
    rest = [g for g in gens if len(g._terms) > 1]
    if not rest:
        return tuple(basis)
    rest.sort(key=lambda g: key(g.leading_monomial()))

    one = (0,) * ring.n
    spent = 0
    for pos, f in enumerate(rest):
        # One G2V step.  ``basis`` is a Groebner basis of the ideal so far,
        # and every new element h = u*f (mod that ideal), polys[old + c],
        # carries its signature lm(u), as exponents in sigs[c] and as the
        # key difference key(lm(u)) - key(lm(h)) in ratios[c].  The old
        # basis has signature 0, below every new one.
        f = normal_form(f, basis)
        old = len(basis)
        polys = basis
        lms = [g.leading_monomial() for g in polys]
        sigs: list[Exponents] = []
        ratios: list[int] = []
        syz = list(lms)  # leading monomials of known elements of (ideal so far : f)
        queue: list[tuple[int, int, int, int, Exponents]] = []
        h, t, tk, last = f, one, 0, None
        while h:
            la = h.leading_monomial()
            if not any(la):
                return (ring.one,)
            a = len(polys)
            ra = tk - key(la)
            # J-pairs with every element, signed by the larger side, which
            # is a's against an old element; with a new element b the
            # principal syzygy h_b*u_a - h_a*u_b leads with lm(h_b)*lm(u_a)
            # when a's side is larger, else the reverse
            for b, lb in enumerate(lms):
                lcm = _monomial_lcm(la, lb)
                lck = key(lcm)
                ta = lck + ra
                if b >= old:
                    sb = sigs[b - old]
                    tb = lck + ratios[b - old]
                    if ta < tb:
                        _add_minimal(syz, tuple(map(add, la, sb)))
                        heappush(queue, (tb, lck, b, a, tuple(map(add, map(sub, lcm, lb), sb))))
                    if ta <= tb:
                        continue
                    _add_minimal(syz, tuple(map(add, lb, t)))
                heappush(queue, (ta, lck, a, b, tuple(map(add, map(sub, lcm, la), t))))
            polys.append(h.monic())
            lms.append(la)
            sigs.append(t)
            ratios.append(ra)
            h = None
            while queue:
                # the smallest signature next, with its smallest lcm, unless
                # the syzygy or the cover criterion drops it
                tk, lck, i, j, t = heappop(queue)
                if tk == last:
                    continue
                last = tk
                if any(_monomial_divides(s, t) for s in syz):
                    continue
                # new element c covers the pair when lm(u_c) divides t and
                # (t / lm(u_c)) * lm(h_c) < lcm, that is ratio_c > tk - lck
                cover = tk - lck
                if any(r > cover and _monomial_divides(s, t) for r, s in zip(ratios, sigs)):
                    continue
                spent += 1
                if spent > budget:
                    raise ResourceError(
                        f"S-pair budget of {budget} exceeded while computing a basis",
                        partial=tuple(polys) + tuple(rest[pos + 1 :]),
                    )
                # regular reduction: a reducer's multiple must stay below the
                # signature, so new element c reduces terms of key below
                # tk - ratios[c]; an old one reduces every term, which lies
                # below the lcm
                h = _spoly(polys[i], polys[j])
                if h:
                    bounds = [lck] * old + [tk - r for r in ratios]
                    h = poly_division(h, polys, False, bounds)[1]
                    if h:
                        break
                _add_minimal(syz, t)
        # keep the elements whose leading monomial no other one divides
        basis, kept = [], []
        for c in sorted(range(len(polys)), key=lambda c: sum(lms[c])):
            if not any(_monomial_divides(k, lms[c]) for k in kept):
                basis.append(polys[c])
                kept.append(lms[c])

    # tail-reduce each survivor against the rest; leading monomials are
    # already pairwise indivisible, so one pass yields the reduced basis
    out: list[Poly] = []
    for pos, g in enumerate(basis):
        others = basis[:pos] + basis[pos + 1 :]
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
            check_member(g, Poly, "an ideal generator", ring)
            if g._terms:
                kept.append(g)
        self.gens: tuple[Poly, ...] = tuple(kept)
        self._gb: tuple[Poly, ...] | None = None

    @classmethod
    def _of_checked(cls, ring: Ring, gens: tuple[Poly, ...]) -> "Ideal":
        # generators already known to be nonzero polynomials of ``ring``
        out = object.__new__(cls)
        out.ring = ring
        out.gens = gens
        out._gb = None
        return out

    # -- canonical basis ------------------------------------------------

    def groebner(self) -> tuple[Poly, ...]:
        """The reduced Groebner basis (cached after the first call)."""
        if self._gb is None:
            self._gb = buchberger(self.gens, self.ring)
        return self._gb

    def canonical(self) -> "Ideal":
        """The same ideal presented by its reduced basis."""
        out = Ideal._of_checked(self.ring, self.groebner())
        out._gb = self._gb
        return out

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.groebner()

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def normal_form(self, f: Poly) -> Poly:
        check_member(f, Poly, "the element", self.ring)
        return normal_form(f, self.groebner())

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def __le__(self, other: "Ideal") -> bool:
        """Containment: every generator reduces to zero modulo ``other``."""
        if not isinstance(other, Ideal):
            return NotImplemented
        check_member(other, Ideal, "the other ideal", self.ring)
        return all(other.contains(g) for g in self.gens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            return False
        # equal generators need no basis
        return self.gens == other.gens or self.groebner() == other.groebner()

    __hash__ = None  # type: ignore[assignment]

    # -- constructions -----------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        check_member(other, Ideal, "the other summand", self.ring)
        return Ideal(self.ring, self.gens + other.gens)

    def scale(self, f: Poly) -> "Ideal":
        """The product ideal f * I."""
        check_member(f, Poly, "the scalar", self.ring)
        return Ideal(self.ring, tuple(f * g for g in self.gens))

    def bracket_power(self, e: int) -> "Ideal":
        """The ideal generated by the q**e-th powers of the generators.

        Well defined (independent of the chosen generators) because the
        Frobenius map is flat here.  A cached reduced basis transfers: the
        q**e-power map fixes coefficients, scales exponents, and preserves
        divisibility, the term order, monic-ness and auto-reducedness.
        """
        check_int(e, "a bracket level", 0)
        if e == 0:
            return self
        out = Ideal(self.ring, tuple(g.frobenius_power(e) for g in self.gens))
        if self._gb is not None:
            out._gb = tuple(g.frobenius_power(e) for g in self._gb)
        return out

    def _monomials(self) -> list[Exponents] | None:
        # The exponent tuples of a single-term presentation (the cached
        # basis when there is one, else the generators); None when some
        # element has two or more terms.
        gens = self.gens if self._gb is None else self._gb
        if all(len(g) == 1 for g in gens):
            return [g.leading_monomial() for g in gens]
        return None

    def intersection(self, other: "Ideal") -> "Ideal":
        """The intersection I ∩ J, exact in every case.

        Two shortcuts come before the general route, and neither computes a
        basis of its own:

        - when both ideals are monomial (all generators, or all elements of
          a cached basis, are single terms), a contained side, else (lcm(m_i, n_j));
        - when J's reduced basis is cached and I ⊆ J, the answer is I, and
          the same holds with the two sides swapped.

        Everything else goes through the auxiliary-variable elimination
        I ∩ J = (t·I + (1 - t)·J) ∩ F_p[x].
        """
        check_member(other, Ideal, "the other ideal", self.ring)
        if not self.gens or not other.gens:
            return other if self.gens else self
        mine = self._monomials()
        if mine is not None:
            theirs = other._monomials()
            if theirs is not None:
                for side, inner, outer in ((self, mine, theirs), (other, theirs, mine)):
                    if all(any(_monomial_divides(n, m) for n in outer) for m in inner):
                        return side
                return _monomial_ideal(
                    self.ring, (_monomial_lcm(a, b) for a in mine for b in theirs)
                )
        if other._gb is not None and self <= other:
            return self
        if self._gb is not None and other <= self:
            return other
        return Ideal(self.ring, self._eliminate(other))

    def colon(self, f: Poly) -> "Ideal":
        """The quotient (I : f) = {g : g*f in I}; f must be nonzero.

        The exact quotient of I ∩ (f) by f: each generator of the
        intersection is divided by f, so every shortcut of
        :meth:`intersection` serves the quotient too.
        """
        check_member(f, Poly, "the divisor", self.ring)
        if not f:
            raise DomainError("ideal quotient by the zero polynomial")
        ring = self.ring
        out: list[Poly] = []
        for g in self.intersection(Ideal._of_checked(ring, (f,))).gens:
            quots, rem = poly_division(g, [f])
            if rem:
                raise InvariantError(
                    "intersection with a principal ideal must be divisible "
                    "by its generator"
                )
            out.append(quots[0])
        return Ideal._of_checked(ring, tuple(out))

    def _eliminate(self, other: "Ideal") -> list[Poly]:
        # Generators of I ∩ J: the reduced basis of t·I + (1 - t)·J in the
        # elimination order, with every element free of t projected back.
        ext = _extended_ring(self.ring)
        t = ext.gens[0]
        one_minus_t = ext.one - t
        lifted = [t * _lift(g, ext) for g in self.gens]
        lifted += [one_minus_t * _lift(g, ext) for g in other.gens]
        return [
            _project(h, self.ring)
            for h in buchberger(lifted, ext)
            if h.leading_monomial()[0] == 0
        ]

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self) -> str:
        return f"<Ideal {self} of {self.ring}>"


def _monomial_ideal(ring: Ring, monos: Iterable[Exponents]) -> Ideal:
    # the ideal of the distinct monomials, each with coefficient 1
    gens = tuple(Poly(ring, {m: 1}, m) for m in dict.fromkeys(monos))
    return Ideal._of_checked(ring, gens)


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
