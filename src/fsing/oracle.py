"""Independent brute-force checks for the main algorithms.

Everything here trades efficiency for obviousness: divisibility scans,
exhaustive antichain enumeration, dense linear algebra.  The oracles ship
in the library (not only in the test suite) so the command line can run
them against the fast paths on demand.  They are usable only on small
instances; the enumeration guard raises :class:`ResourceError`.
"""

from __future__ import annotations

from itertools import product
from operator import le

from .errors import DomainError, ResourceError, check_int
from .groebner import Ideal
from .polyring import Exponents, Poly


def monomial_root_oracle(exponents: Exponents, q: int, e: int) -> Exponents:
    """Level-e root of a single monomial: componentwise floor by q**e."""
    check_int(e, "the root level", 1)
    Q = q**e
    return tuple([b // Q for b in exponents])


def bracket_membership_oracle(f: Poly, e: int) -> bool:
    """Whether f lies in the level-e bracket power of the maximal ideal.

    That ideal is (x_1**Q, ..., x_n**Q) with Q = q**e, so membership just
    asks every term to be divisible by some x_i**Q; no basis computation.
    The zero polynomial is a member.
    """
    check_int(e, "the bracket level", 0)
    Q = f.ring.q**e
    return all(any(b >= Q for b in m) for m, _ in f.terms())


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _antichains(candidates: list[Exponents], limit: int):
    # Yield every antichain (no member divides another) exactly once by
    # adding elements in index order; the guard counts emitted antichains.
    # Each level receives only the later candidates that are comparable
    # with nothing chosen so far, in their original order.
    count = 0

    def rec(pool: list[Exponents], chosen: list[Exponents]):
        nonlocal count
        count += 1
        if count > limit:
            raise ResourceError(
                f"antichain enumeration exceeded the guard of {limit}"
            )
        yield tuple(chosen)
        for j, c in enumerate(pool):
            chosen.append(c)
            yield from rec(
                [
                    o
                    for o in pool[j + 1 :]
                    if not _divides(c, o) and not _divides(o, c)
                ],
                chosen,
            )
            chosen.pop()

    yield from rec(list(candidates), [])


def smallest_ideal_bruteforce(
    g: Poly, e: int, exponent_cap: int, max_ideals: int = 500_000
) -> Ideal:
    """Smallest monomial ideal whose level-e bracket power contains g.

    Enumerates every monomial ideal with generator exponents <= the cap
    (as antichains in the divisibility order), keeps those whose bracket
    power contains every term of g by direct divisibility, and returns the
    one contained in all others.  Raises :class:`ResourceError` past the
    enumeration guard and :class:`DomainError` if no admissible ideal or
    no unique smallest one exists within the cap.
    """
    check_int(e, "the root level", 1)
    ring = g.ring
    if not g:
        return Ideal(ring, ())
    Q = ring.q**e
    terms = [m for m, _ in g.terms()]
    candidates = sorted(product(range(exponent_cap + 1), repeat=ring.n))
    passing: list[tuple[Exponents, ...]] = []
    for chain in _antichains(candidates, max_ideals):
        if all(
            any(_divides(tuple(Q * a for a in m), beta) for m in chain)
            for beta in terms
        ):
            passing.append(chain)
    if not passing:
        raise DomainError(
            f"no monomial ideal with exponents <= {exponent_cap} admits g"
        )

    def contained(a: tuple[Exponents, ...], b: tuple[Exponents, ...]) -> bool:
        return all(any(_divides(mb, ma) for mb in b) for ma in a)

    best = passing[0]
    for chain in passing[1:]:
        if contained(chain, best):
            best = chain
    if not all(contained(best, chain) for chain in passing):
        raise DomainError(
            "no unique smallest admissible monomial ideal within the cap; "
            "the level-e root is not a monomial ideal here"
        )
    return Ideal(ring, tuple(ring.monomial(m) for m in best))


def _monomials_up_to(n: int, degree: int) -> list[Exponents]:
    return [m for m in product(range(degree + 1), repeat=n) if sum(m) <= degree]


def express_in_ideal(
    f: Poly, gens: list[Poly], max_degree: int
) -> list[Poly] | None:
    """Solve f = sum(h_i * g_i) with deg h_i <= max_degree, if possible.

    Dense linear algebra over F_p: one unknown per (generator, monomial)
    pair, one equation per monomial that can occur.  Returns the cofactor
    list as a membership certificate, or None when no solution exists at
    this degree bound.  Independent of any basis computation.
    """
    ring = f.ring
    p = ring.p
    live = [i for i, g in enumerate(gens) if g]
    if not live:
        return None if f else [ring.zero for _ in gens]
    cof_monomials = _monomials_up_to(ring.n, max_degree)
    columns: list[tuple[int, Exponents]] = [
        (i, mu) for i in live for mu in cof_monomials
    ]
    rows: dict[Exponents, int] = {}
    col_vectors: list[dict[int, int]] = []
    for i, mu in columns:
        vec: dict[int, int] = {}
        for m, c in gens[i].terms():
            mm = tuple(a + b for a, b in zip(mu, m))
            idx = rows.setdefault(mm, len(rows))
            vec[idx] = (vec.get(idx, 0) + c) % p
        col_vectors.append(vec)
    target = [0] * len(rows)
    for m, c in f.terms():
        if m not in rows:
            return None
        target[rows[m]] = c

    ncols = len(columns)
    nrows = len(rows)
    matrix = [[0] * (ncols + 1) for _ in range(nrows)]
    for j, vec in enumerate(col_vectors):
        for idx, c in vec.items():
            matrix[idx][j] = c
    for idx, c in enumerate(target):
        matrix[idx][ncols] = c

    # Gaussian elimination mod p
    pivot_cols: list[int] = []
    r = 0
    for j in range(ncols):
        pivot = next((i for i in range(r, nrows) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = pow(matrix[r][j], p - 2, p)
        matrix[r] = [(v * inv) % p for v in matrix[r]]
        for i in range(nrows):
            if i != r and matrix[i][j]:
                factor = matrix[i][j]
                matrix[i] = [
                    (a - factor * b) % p for a, b in zip(matrix[i], matrix[r])
                ]
        pivot_cols.append(j)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if matrix[i][ncols]:
            return None

    solution = [0] * ncols
    for row, j in enumerate(pivot_cols):
        solution[j] = matrix[row][ncols]
    cofactors: list[dict[Exponents, int]] = [{} for _ in gens]
    for (i, mu), value in zip(columns, solution):
        if value:
            cofactors[i][mu] = value
    return [ring.poly(terms) for terms in cofactors]
