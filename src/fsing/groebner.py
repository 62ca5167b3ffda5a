"""Decidable ideal arithmetic over F_p[x] via reduced Groebner bases.

The engine is the incremental signature-based algorithm G2V (Gao, Guan
and Volny, ISSAC 2010) with the cover criterion of GVW (Gao, Volny and
Wang, *Math. Comp.* 2016).  The single-term generators seed the basis
with their minimal monomials (Dickson's lemma) and form no pairs; when
every generator is a single term, that is the answer, and no division or
S-polynomial is computed.  A single nonzero generator needs neither: the
reduced basis of a principal ideal is its monic generator.  The other
generators join one at a time, in increasing leading-monomial order.
Each one, f, is reduced by the basis G so far.  From then on every new
element h = u*f (mod G) carries its signature lm(u), and the J-pairs of a
new element with any element (the S-polynomial, signed by its side of
larger signature) are taken in increasing signature, one per signature:
the one with the smallest lcm.  Before it is reduced, a J-pair is dropped

- by the syzygy criterion, when its signature is divisible by a leading
  monomial of G or by the signature of an earlier zero reduction, since
  both lead elements of (G : f).  The principal syzygy h_b*u_a - h_a*u_b
  of two new elements lies in G's ideal, as h = u*f modulo it, so G's
  leading monomials already cover its leading monomial;
- by the cover criterion, when an element whose signature divides the
  J-pair's has, multiplied up to that signature, a leading monomial below
  the J-pair's lcm.  That element would also make the reduced J-pair
  singular top-reducible, so no such result is ever formed.

Reduction is regular: a reducer's multiple must have a strictly smaller
signature, which :func:`poly_division` enforces as one order-key bound
per divisor.  A nonzero result joins the new elements, and a unit ends a
basis computation at once.  After each generator, elements whose leading
monomial another one divides leave the basis; after the last, one
tail-reduction pass gives the reduced basis.

Every term is stored under its order key (:mod:`fsing.polyring`), which is
additive, so a shifted term costs one integer addition.  Division keeps
its pending terms in a heap of keys, and each divisor's leading key and
word, inverse leading coefficient and tail are cached on the polynomial
(:meth:`Poly.reducer`); a divisor whose record is cached and whose ring
is the dividend's own object is taken without a further check.
Divisibility, lcms and gcds are read off packed exponent words with one
guard bit per field, never off exponent tuples.
Signatures are keys and words too.  No reduction, S-polynomial or
cofactor product builds a term above ``MAX_TOTAL_DEGREE``; one that would
raises :class:`ResourceError`.  A signature is never built as a term and
may pass that guard, so it is held below ``WORD_LIMIT``, where its word
stays exact.

Every ideal exposes its reduced basis, which is unique for a fixed
monomial order, so ideal equality, membership, intersection and quotients
are all exact decisions.

A quotient (G : f) is read off the same step, run once on G's reduced
basis with every new element carrying its whole cofactor u (Gao, Guan and
Volny).  The elements of (G : f) it meets lead the syzygy criterion's
monomials: G's own elements, and the cofactor of each J-pair that
reduces to zero, less q_c*u_c for each new divisor c of that reduction.
A unit does not end this step.  At its end the syzygy criterion's minimal
monomials generate the leading monomials of (G : f), so their elements,
tail-reduced, are its reduced basis; f in G gives (1) at the first
division.  A monomial ideal divided by a monomial n is (m_i / gcd(m_i, n))
with no basis computed, and a lex or elim ring tests f in G first when G's
basis is cached, so that its grevlex copy builds none to find (1).

Intersection owns the exact shortcuts and the one general route, the
auxiliary-variable elimination (Cox, Little and O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 4).  The shortcuts come first and never
compute a basis of their own: an empty side is the intersection;
monomial ideals meet in a side the other contains, else (m_i) ∩ (n_j) =
(lcm(m_i, n_j)); and an ideal inside one whose reduced basis is cached is
the intersection.

A lex or elim ring runs the quotient step and the elimination in its
grevlex copy, through one helper that carries the inputs there and the
answer back: in those orders the step would build their costly basis of
G + (f), and in grevlex the auxiliary variable joins and leaves with
every key unchanged.  Sums of terms go through ``polyring.accumulate``,
except in division's heap loop and an S-polynomial's second tail.

The context variable ``MAX_SPAIRS`` caps the S-pairs of every basis or
quotient computation: the J-pairs that pass both criteria and are reduced.
Exceeding it raises :class:`ResourceError` whose partial is the basis so
far plus the generators not yet added, which together generate the ideal;
for a quotient, the elements of it found so far, and for an elimination,
the elements of the basis so far that are free of the auxiliary variable,
both in the caller's ring.
All-monomial bases spend no S-pairs, so no cap refuses them; a cap that
is not an integer >= 0 raises :class:`DomainError`.  Library callers set
it with ``MAX_SPAIRS.set`` and undo that with ``MAX_SPAIRS.reset``; each
thread keeps its own value.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import replace
from heapq import heapify, heappop, heappush
from math import inf
from typing import Callable, Iterable, Sequence

from .errors import (
    DomainError,
    InvariantError,
    ResourceError,
    check_int,
    check_member,
)
from .polyring import WORD_LIMIT, Poly, Ring, accumulate, check_degree

# Cap on the J-pairs reduced per basis or quotient computation, read once
# per buchberger or colon call; the CLI's ``--budget-spairs`` sets it for one command.
# All-monomial inputs spend none.
MAX_SPAIRS: ContextVar[int] = ContextVar("MAX_SPAIRS", default=200_000)


def _add_minimal(monos: list[int], m: int, guard: int) -> None:
    # keep the words ``monos`` the minimal generators of the monomial ideal
    # they span; divisibility is tested inline, as this runs once per pair
    # of monomials
    top = m | guard
    for k in monos:
        if (top - k) & guard == guard:
            return
    monos[:] = [k for k in monos if ((k | guard) - m) & guard != guard]
    monos.append(m)


def _check_signature(degree: int) -> None:
    # A signature is never built as a term, so the degree guard does not
    # bound it, and it may pass the guard while every term stays inside.
    # Its word is exact, and its divisibility tests sound, below WORD_LIMIT.
    if degree >= WORD_LIMIT:
        raise ResourceError(f"a signature would reach the word limit {WORD_LIMIT}")


def _monomial(ring: Ring, k: int) -> Poly:
    # the monomial of order key k, with coefficient 1
    return Poly(ring, {k: 1}, k)


def _add_product(acc: dict[int, int], p: int, a: Poly, b: Poly, scale: int = 1) -> None:
    # acc += scale * a * b in place; within the degree guard
    check_degree(a.total_degree() + b.total_degree())
    right = b._terms.items()
    for k1, c1 in a._terms.items():
        accumulate(acc, p, right, c1 * scale, k1)


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
    the shift's key plus the divisor term's key.  Each popped term's word
    is decoded once and tested against every divisor's leading word with
    the guard bits (see :class:`~fsing.polyring.Codec`).  A leading
    monomial divides only terms whose key is at least its own, so once the
    popped key falls below the least leading key, every pending term goes
    to the remainder untested.
    """
    ring = f.ring
    p = ring.p
    reducers = []
    # no divisor reaches a term below the least leading key (see the scan
    # below); the bounds in ``below`` only narrow which divisors reach one
    floor = inf
    for d in divisors:
        # a cached record is a checked nonzero divisor of this very ring
        r = d._reducer if type(d) is Poly and d.ring is ring else None
        if r is None:
            check_member(d, Poly, "a divisor", ring)
            if not d:
                raise DomainError("cannot divide by the zero polynomial")
            r = d.reducer()
        reducers.append(r)
        if r[0] < floor:
            floor = r[0]
    if below is not None and len(below) != len(reducers):
        raise DomainError("division needs one key bound per divisor")
    quots: list[dict[int, int]] | None = (
        [{} for _ in reducers] if with_quotients else None
    )
    rem: dict[int, int] = {}
    codec = ring._codec
    word, word_degree, G = codec.word, codec.word_degree, codec.guard
    work = dict(f._terms)
    heap = [-k for k in work]
    heapify(heap)
    if below is None and heap:
        below = [1 - heap[0]] * len(reducers)  # above every term reduced
    while heap:
        k = -heappop(heap)
        if k < floor:
            # every pending term is remainder, in decreasing order
            rem.update(sorted(work.items(), reverse=True))
            break
        c = work.pop(k, 0)
        if not c:
            continue
        w = word(k)
        top = w | G
        for i, (lk, lw, lc_inv, excess, tail) in enumerate(reducers):
            # every weight is positive, so lm | m implies lk <= k
            if lk <= k < below[i] and (top - lw) & G == G:
                break
        else:
            rem[k] = c
            continue
        if excess > 0:
            check_degree(word_degree(w) + excess)
        coef = c * lc_inv % p
        sk = k - lk
        if quots is not None:
            # the key strictly decreases, so each shift occurs once per divisor
            quots[i][sk] = coef
        for dk, dc in tail:
            nk = sk + dk
            # the accumulator inline: a new key must also join the heap
            v = work.get(nk)
            if v is None:
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
    kf, wf, _, ef, tail_f = f.reducer()
    kg, wg, _, eg, tail_g = g.reducer()
    codec = f.ring._codec
    lcm = codec.lcm(wf, wg)
    degree = codec.word_degree(lcm)
    if tail_f:
        check_degree(degree + ef)
    if tail_g:
        check_degree(degree + eg)
    lck = codec.key(lcm)
    shift = lck - kf
    out = {shift + k: c for k, c in tail_f}
    get = out.get
    p = f.ring.p
    shift = lck - kg
    # the accumulator inline: through the helper, a replay of one
    # groebner-systems pass's S-polynomials was slower in 169 of 200 rounds
    for k, c in tail_g:
        k += shift
        v = (get(k, 0) - c) % p
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return Poly(f.ring, out)


def _monomial_basis(ring: Ring, words: Iterable[int]) -> tuple[Poly, ...]:
    # The reduced basis of a monomial ideal, given by the words of its
    # generators, is its minimal generators (Dickson's lemma).  In degree
    # order none divides one added before it, so none is added and then
    # dropped; a constant leaves the unit basis.
    codec = ring._codec
    minimal: list[int] = []
    for w in sorted(words, key=codec.word_degree):
        _add_minimal(minimal, w, codec.guard)
    return tuple([_monomial(ring, k) for k in sorted(map(codec.key, minimal), reverse=True)])


def _spair_budget() -> int:
    # the S-pair cap in force, read once per basis or quotient computation
    budget = MAX_SPAIRS.get()
    check_int(budget, "the S-pair budget", 0)
    return budget


def buchberger(gens: Iterable[Poly], ring: Ring) -> tuple[Poly, ...]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Returns monic, pairwise auto-reduced polynomials sorted by leading
    monomial, largest first; the empty tuple presents the zero ideal.
    Two inputs are read off without a pair or a division: one nonzero
    generator, whose monic form is the reduced basis of the principal
    ideal, and single-term generators, whose basis is found by
    divisibility alone.  Neither spends an S-pair.
    """
    budget = _spair_budget()
    gens = list(gens)
    for g in gens:
        check_member(g, Poly, "a generator", ring)
    if len(gens) == 1 and gens[0]:
        return (gens[0].monic(),)
    # the single-term generators seed the basis with the reduced basis of
    # the monomial ideal they span
    word = ring._codec.word
    basis = _monomial_basis(ring, {word(k) for g in gens if len(g._terms) == 1 for k in g._terms})
    if basis and not basis[0]._lead():
        return basis
    rest = [g for g in gens if len(g._terms) > 1]
    if not rest:
        return basis
    rest.sort(key=Poly._lead)
    spent = 0
    for pos, f in enumerate(rest):
        grown, spent = _g2v_step(basis, f, spent, budget, rest[pos + 1 :])
        if grown is None:
            return (ring.one,)
        basis = grown
    return _interreduced(basis)


def _g2v_step(
    basis: Sequence[Poly],
    f: Poly,
    spent: int,
    budget: int,
    waiting: Sequence[Poly] = (),
    track: bool = False,
) -> tuple[Sequence[Poly] | None, int]:
    """One G2V step: extend the Groebner basis ``basis`` of I by f.

    Returns the elements of a Groebner basis of I + (f) whose leading
    monomials are minimal, or None when I + (f) is the unit ideal, and the
    S-pairs spent so far.  With ``track`` it returns the reduced basis of
    (I : f) instead, and a unit does not end the step.  Over ``budget``,
    the :class:`ResourceError`'s partial is the basis so far plus
    ``waiting``, or with ``track`` the elements of (I : f) found so far.
    A signature of degree ``WORD_LIMIT`` or more raises :class:`ResourceError`.
    """
    # Every new element h = u*f (mod I), polys[old + c], carries its
    # signature lm(u): its key in sigs[c], its word in sig_words[c], its
    # degree in sig_degs[c], and the key difference key(lm(u)) - key(lm(h))
    # in ratios[c]; with ``track`` u itself is cofs[c].  The old basis has
    # signature 0, below every new one.  syz holds the words of the minimal
    # leading monomials of the known elements of (I : f), and with
    # ``track`` found maps each one to such an element: an old element, or
    # a J-pair's cofactor that reduced to 0.
    ring = f.ring
    p = ring.p
    codec = ring._codec
    word, degree, G = codec.word, codec.degree, codec.guard
    h = normal_form(f, basis)
    old = len(basis)
    polys = list(basis)
    leads = [g._lead() for g in polys]
    lead_words = [word(k) for k in leads]
    lead_degs = [degree(k) for k in leads]
    sigs: list[int] = []
    sig_words: list[int] = []
    sig_degs: list[int] = []
    ratios: list[int] = []
    cofs: list[Poly | None] = []
    syz = list(lead_words)
    found = dict(zip(lead_words, polys)) if track else {}
    queue: list[tuple[int, int, int, int]] = []
    u, tk, tw, td, last = ring.one if track else None, 0, 0, 0, None
    if track and not h:
        _add_minimal(syz, 0, G)  # f in I
        found[0] = u
    while h:
        ka = h._lead()
        if not ka and not track:
            return None, spent
        a = len(polys)
        wa = word(ka)
        ra = tk - ka
        if track:
            inv = pow(h.leading_coeff(), p - 2, p)
            u = Poly(ring, {k: c * inv % p for k, c in u._terms.items()}, tk)
        h = h.monic()
        # J-pairs with every element, signed by the larger side, which is
        # a's against an old element.  The principal syzygy h_b*u_a - h_a*u_b
        # of two new elements lies in I, as h = u*f there, so the leading
        # monomials of I's basis already cover its leading monomial.  A
        # J-pair's signature key is its lcm's key plus its side's ratio.
        for b, lck in enumerate(codec._keys(codec.lcms(wa, lead_words))):
            ta = lck + ra
            if b >= old:
                tb = lck + ratios[b - old]
                if ta < tb:
                    heappush(queue, (tb, lck, b, a))
                if ta <= tb:
                    continue
            heappush(queue, (ta, lck, a, b))
        polys.append(h)
        leads.append(ka)
        lead_words.append(wa)
        lead_degs.append(degree(ka))
        sigs.append(tk)
        sig_words.append(tw)
        sig_degs.append(td)
        ratios.append(ra)
        cofs.append(u)
        h = None
        while queue:
            # the smallest signature next, with its smallest lcm, unless
            # the syzygy or the cover criterion drops it
            tk, lck, i, j = heappop(queue)
            if tk == last:
                continue
            last = tk
            td = degree(lck) - lead_degs[i] + sig_degs[i - old]
            _check_signature(td)
            tw = word(tk)
            top = tw | G
            if any((top - s) & G == G for s in syz):
                continue
            # new element c covers the pair when lm(u_c) divides t and
            # (t / lm(u_c)) * lm(h_c) < lcm, that is ratio_c > tk - lck
            cover = tk - lck
            if any(r > cover and (top - s) & G == G for r, s in zip(ratios, sig_words)):
                continue
            spent += 1
            if spent > budget:
                raise ResourceError(
                    f"S-pair budget of {budget} exceeded while computing a "
                    + ("quotient" if track else "basis"),
                    partial=tuple(found[s] for s in syz) if track
                    else tuple(polys) + tuple(waiting),
                )
            # regular reduction: a reducer's multiple must stay below the
            # signature, so new element c reduces terms of key below
            # tk - ratios[c]; an old one reduces every term, which lies
            # below the lcm
            h = _spoly(polys[i], polys[j])
            if track:
                # u = (lcm / lm(h_i)) * u_i - (lcm / lm(h_j)) * u_j, less
                # q_c * u_c for each new divisor c of the reduction
                acc: dict[int, int] = {}
                _add_product(acc, p, _monomial(ring, tk - sigs[i - old]), cofs[i - old])
                if j >= old:
                    _add_product(acc, p, _monomial(ring, lck - leads[j]), cofs[j - old], -1)
            if h:
                bounds = [lck] * old + [tk - r for r in ratios]
                quots, h = poly_division(h, polys, track, bounds)
                if track:
                    for q, c in zip(quots[old:], cofs):
                        if q:
                            _add_product(acc, p, q, c, -1)
            if track:
                u = Poly(ring, acc, tk)
            if h:
                break
            # no known element's leading monomial divides t, so t joins syz
            _add_minimal(syz, tw, G)
            if track:
                found[tw] = u
    if track:
        return _interreduced([found[s] for s in syz]), spent
    # keep the elements whose leading monomial no other one divides
    basis, kept = [], []
    for c in sorted(range(len(polys)), key=lead_degs.__getitem__):
        top = lead_words[c] | G
        if not any((top - k) & G == G for k in kept):
            basis.append(polys[c])
            kept.append(lead_words[c])
    return basis, spent


def _interreduced(basis: Sequence[Poly]) -> tuple[Poly, ...]:
    # tail-reduce each element against the rest; leading monomials are
    # already pairwise indivisible, so one pass yields the reduced basis.
    # Every tail term lies below its element's lead, and a leading monomial
    # divides only terms of key at least its own, so only the elements of
    # smaller lead, in their order, can reduce it; an element with none is
    # kept as it is.
    out: list[Poly] = []
    for g in basis:
        lk = g._lead()
        r = normal_form(g, [d for d in basis if d._lead() < lk])
        if r:
            out.append(r.monic())
    out.sort(key=Poly._lead, reverse=True)
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

    @classmethod
    def _of_basis(cls, ring: Ring, basis: tuple[Poly, ...]) -> "Ideal":
        # the ideal presented by ``basis``, already its reduced basis
        out = cls._of_checked(ring, basis)
        out._gb = basis
        return out

    # -- canonical basis ------------------------------------------------

    def groebner(self) -> tuple[Poly, ...]:
        """The reduced Groebner basis (cached after the first call)."""
        if self._gb is None:
            self._gb = buchberger(self.gens, self.ring)
        return self._gb

    def canonical(self) -> "Ideal":
        """The same ideal presented by its reduced basis."""
        return Ideal._of_basis(self.ring, self.groebner())

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

    def _monomials(self) -> list[int] | None:
        # The words of a single-term presentation (the cached basis when
        # there is one, else the generators); None when some element has
        # two or more terms.
        gens = self.gens if self._gb is None else self._gb
        if all(len(g) == 1 for g in gens):
            word = self.ring._codec.word
            return [word(g._lead()) for g in gens]
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
                codec = self.ring._codec
                for side, inner, outer in ((self, mine, theirs), (other, theirs, mine)):
                    if all(any(codec.divides(n, m) for n in outer) for m in inner):
                        return side
                return _monomial_ideal(
                    self.ring, (codec.key(codec.lcm(a, b)) for a in mine for b in theirs)
                )
        if other._gb is not None and self <= other:
            return self
        if self._gb is not None and other <= self:
            return other
        return Ideal(self.ring, self._eliminate(other))

    def colon(self, f: Poly) -> "Ideal":
        """The quotient (I : f) = {g : g*f in I}; f must be nonzero.

        A monomial ideal divided by a monomial n is (m_i / gcd(m_i, n)), with
        no basis computed.  Everything else is read off one G2V step that
        extends I's reduced basis by f while tracking cofactors, whose first
        division gives (1) when f is in I; in a grevlex ring the answer comes
        with its reduced basis cached.  A lex or elim ring tests f in I first
        when I's basis is cached, else runs that step in its grevlex copy,
        and the answer's generators are that copy's basis.
        """
        check_member(f, Poly, "the divisor", self.ring)
        if not f:
            raise DomainError("ideal quotient by the zero polynomial")
        ring = self.ring
        if len(f) == 1:
            mine = self._monomials()
            if mine is not None:
                codec = ring._codec
                n = codec.word(f._lead())
                return Ideal._of_basis(
                    ring, _monomial_basis(ring, {m - codec.gcd(m, n) for m in mine})
                )
        if ring.order == "grevlex":
            return Ideal._of_basis(ring, _quotient(self, (f,)))
        if self._gb is not None and self.contains(f):
            return Ideal._of_basis(ring, (ring.one,))
        # the copy's reduced basis is not the ideal's own in this order
        return Ideal._of_checked(ring, _in_grevlex(self, (f,), _quotient))

    def _eliminate(self, other: "Ideal") -> tuple[Poly, ...]:
        # generators of I ∩ J, by elimination in the grevlex copy
        return _in_grevlex(self, other.gens, _eliminated)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self) -> str:
        return f"<Ideal {self} of {self.ring}>"


def _monomial_ideal(ring: Ring, keys: Iterable[int]) -> Ideal:
    # the ideal of the distinct monomials, each with coefficient 1
    return Ideal._of_checked(ring, tuple(_monomial(ring, k) for k in dict.fromkeys(keys)))


def _in_grevlex(ideal: Ideal, polys: Sequence[Poly],
                compute: Callable[[Ideal, Sequence[Poly]], Sequence[Poly]]) -> tuple[Poly, ...]:
    # compute(ideal, polys) in the grevlex copy of the ideal's ring, whose
    # keys the elimination lifts and projects unchanged, and where a colon
    # does not build the costly basis of I + (f) in a lex or elim order.
    # The inputs are carried there, and the answer and a budget's partial
    # back; a grevlex ring is its own copy.
    ring = ideal.ring
    if ring.order == "grevlex":
        return tuple(compute(ideal, polys))
    copy = replace(ring, order="grevlex")
    try:
        answer = compute(Ideal._of_checked(copy, _carried(ideal.gens, copy)),
                         _carried(polys, copy))
    except ResourceError as exc:
        if exc.partial is None:
            raise
        raise ResourceError(str(exc), partial=_carried(exc.partial, ring)) from None
    return _carried(answer, ring)


def _quotient(ideal: Ideal, divisor: Sequence[Poly]) -> tuple[Poly, ...]:
    # the reduced basis of (I : f), read off one tracked G2V step on I's basis
    (f,) = divisor
    return _g2v_step(ideal.groebner(), f, 0, _spair_budget(), track=True)[0]


def _eliminated(ideal: Ideal, others: Sequence[Poly]) -> list[Poly]:
    # Generators of I ∩ J, J = (others), in a grevlex ring: the reduced
    # basis of t·I + (1 - t)·J in the elimination order, whose weights on
    # the last n variables are the grevlex ones, with every element free of
    # t projected back.  A budget's partial keeps those found so far.
    ring = ideal.ring
    ext = _extended_ring(ring)
    t = ext.gens[0]
    one_minus_t = ext.one - t
    lifted = [t * Poly(ext, g._terms) for g in ideal.gens]
    lifted += [one_minus_t * Poly(ext, g._terms) for g in others]
    # in the elimination order, an element is free of t exactly when its
    # leading monomial is, that is when its leading key is below t's
    free = t._lead()
    try:
        basis = buchberger(lifted, ext)
    except ResourceError as exc:
        if exc.partial is None:
            raise
        raise ResourceError(
            str(exc), partial=tuple(_project(h, ring) for h in exc.partial if h._lead() < free)
        ) from None
    return [_project(h, ring) for h in basis if h._lead() < free]


def _carried(polys: Iterable[Poly], ring: Ring) -> tuple[Poly, ...]:
    # the same polynomials in a ring that differs only in its order: each
    # monomial is decoded and encoded again
    key = ring.monomial_key()
    out = []
    for g in polys:
        decode = g.ring._codec.decode
        out.append(Poly(ring, {key(decode(k)): c for k, c in g._terms.items()}))
    return tuple(out)


def _extended_ring(ring: Ring) -> Ring:
    name = "_t"
    k = 0
    while name in ring.var_names:
        name = f"_t{k}"
        k += 1
    return Ring(p=ring.p, var_names=(name,) + ring.var_names, s=ring.s, order="elim")


def _project(g: Poly, base: Ring) -> Poly:
    # g, free of the aux variable, in the grevlex ring it extends
    if g and g.ring._codec.decode(g._lead())[0] != 0:
        raise InvariantError("projection applied to a term with the aux variable")
    return Poly(base, g._terms)
