"""Cyclic modules with a Frobenius-semilinear structural map.

A module is presented by two nested ideals, ``relations <= ambient``, and a
``multiplier`` polynomial f: the underlying module is ambient/relations and
the structural map sends the class of a to the class of f*a inside the
Frobenius pullback, which these presentations track through bracket powers.
Validity means relations <= ambient, f*relations <= relations^[q] and
f*ambient <= ambient^[q].

The central computation is :meth:`FrobModule.minimalize`: quotient away the
largest part killed by an iterate of the structural map, then shrink the
ambient ideal to the smallest one the structural map still reaches.  The
result is the unique minimal model (injective structural map, fixed under
the shrinking step), and the report carries a certificate of both facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator

from .errors import (
    DomainError,
    InvariantError,
    ResourceError,
    ValidationError,
    check_int,
    check_member,
)
from .frobroot import ideal_root
from .groebner import Ideal
from .polyring import Poly, Ring


_KERNEL_BUDGET = 32  # levels the iterated kernel chain may climb


def iterate_exponent(q: int, e: int) -> int:
    """Multiplier exponent of the e-fold structural map: 1 + q + ... + q**(e-1)."""
    check_int(q, "the Frobenius power q", 2)
    check_int(e, "an iterate level", 0)
    return (q**e - 1) // (q - 1)


def shrink_step(relations: Ideal, multiplier: Poly, ideal: Ideal) -> Ideal:
    """One shrinking step: relations + root(multiplier * ideal, 1), canonical.

    The least ideal J with relations <= J and multiplier * ideal <= J^[q].
    It is the ambient shrinking step of :meth:`FrobModule.minimalize` and,
    with relations = (0), the iterated test-ideal step.
    """
    return (relations + ideal_root(ideal.scale(multiplier), 1)).canonical()


def kernel_step(multiplier: Poly, ideal: Ideal) -> Ideal:
    """One kernel step (ideal^[q] : multiplier), canonical; (1) for a zero multiplier.

    The level step K_{e+1} = (K_e^[q] : f) of the iterated kernel chain, and
    from the relations the structural kernel before the ambient cut.
    """
    if not multiplier:
        return Ideal(ideal.ring, (ideal.ring.one,)).canonical()
    return ideal.bracket_power(1).colon(multiplier).canonical()


def walk(step: Callable[[Ideal], Ideal], start: Ideal) -> Iterator[Ideal]:
    """Yield start, step(start), step(step(start)), ... up to the first repeat.

    Each step is a function of its input ideal alone, so once one returns
    its input, every later one does: the walk ends there and never yields
    the repeat.  Taking k items runs ``step`` k - 1 times.
    """
    cur = start
    while True:
        yield cur
        nxt = step(cur)
        if nxt == cur:
            return
        cur = nxt


@dataclass(frozen=True)
class Certificate:
    """Facts verified on a minimalization result."""

    structural_map_injective: bool
    fr_fixed: bool

    @property
    def holds(self) -> bool:
        """Both facts are true: the presentation is minimal."""
        return self.structural_map_injective and self.fr_fixed

    def as_dict(self) -> dict[str, bool]:
        return {
            "structural-map-injective": self.structural_map_injective,
            "fr-fixed": self.fr_fixed,
        }


@dataclass(frozen=True)
class MinimalizeReport:
    """Outcome of :meth:`FrobModule.minimalize`.

    ``kernel_chain_length`` is the first e >= 1 at which the iterated
    kernel chain repeats; ``fr_iterations`` is the smallest i >= 0 at which
    the ambient shrinking iteration repeats.  Both certificate fields are
    True whenever the call returns instead of raising.
    """

    result: "FrobModule"
    kernel_chain_length: int
    fr_iterations: int
    certificate: Certificate


@dataclass(frozen=True, eq=False)
class FrobModule:
    """Presentation (relations, ambient, multiplier) of a cyclic module.

    Instances are immutable; every operation returns a new presentation.
    Use :meth:`validate` to construct with the invariants checked.
    """

    relations: Ideal
    ambient: Ideal
    multiplier: Poly

    @property
    def ring(self) -> Ring:
        return self.multiplier.ring

    @classmethod
    def validate(cls, relations: Ideal, ambient: Ideal, multiplier: Poly) -> "FrobModule":
        """Construct after checking the three defining inclusions.

        Raises :class:`ValidationError` naming the failing inclusion and a
        witness generator, :class:`DomainError` on arguments of the wrong
        type, or :class:`RingMismatchError` on mixed rings.
        """
        check_member(multiplier, Poly, "the multiplier")
        check_member(relations, Ideal, "the relations", multiplier.ring)
        check_member(ambient, Ideal, "the ambient ideal", multiplier.ring)
        # (inner, outer, e): every generator of inner, times f when e = 1,
        # lies in outer^[q^e].  Each bracket is taken when its check starts,
        # so the ambient's bracket inherits the basis the first check cached.
        for inner, outer, e, failure in (
            (relations, ambient, 0, "relations are not contained in the ambient ideal"),
            (relations, relations, 1,
             "multiplier does not carry the relations into their bracket power"),
            (ambient, ambient, 1,
             "multiplier does not carry the ambient ideal into its bracket power"),
        ):
            target = outer.bracket_power(e)
            for g in inner.gens:
                if not target.contains(multiplier * g if e else g):
                    raise ValidationError(f"{failure}: witness generator {g}", witness=g)
        return cls(relations, ambient, multiplier)

    @classmethod
    def principal(cls, multiplier: Poly) -> "FrobModule":
        """The module on the full ring with no relations: (0) <= (1), f."""
        check_member(multiplier, Poly, "the multiplier")
        ring = multiplier.ring
        return cls(Ideal(ring, ()), Ideal(ring, (ring.one,)), multiplier)

    def is_zero_module(self) -> bool:
        return self.relations == self.ambient

    def __eq__(self, other: object) -> bool:
        """Equality of presentations: both ideals agree, multipliers agree."""
        if not isinstance(other, FrobModule):
            return NotImplemented
        return (
            self.multiplier == other.multiplier
            and self.relations == other.relations
            and self.ambient == other.ambient
        )

    __hash__ = None  # type: ignore[assignment]

    # -- kernels and nilpotency -----------------------------------------

    def structural_kernel(self) -> Ideal:
        """Ideal presenting the kernel of the structural map.

        Computed as the :func:`kernel_step` (relations^[q] : f) meet ambient;
        equals the ambient ideal when f == 0 (everything is killed).
        """
        return kernel_step(self.multiplier, self.relations).intersection(self.ambient)

    def nilpotency_order(self, e_max: int = 32) -> int | None:
        """Smallest e <= e_max with the e-fold structural map zero, or None.

        The e-fold map vanishes when f^(1+q+...+q^(e-1)) * ambient <=
        relations^[q^e], that is, when the level-e root of the left side
        lies in the relations.  By (g^q h)^[1/q] = g h^[1/q], and since
        validity puts root(f * relations, 1) inside the relations, the
        relations plus that root is the e-th :func:`shrink_step` from the
        ambient ideal.  The order is the first e >= 1 where the :func:`walk`
        from the ambient ideal itself meets the relations (the zero module:
        order 1, no step).  None means the walk stopped above the relations
        (never nilpotent) or e_max steps did not reach them (order > e_max).
        """
        check_int(e_max, "the nilpotency budget", 1)
        step = partial(shrink_step, self.relations, self.multiplier)
        for e, ideal in enumerate(islice(walk(step, self.ambient), e_max + 1)):
            if ideal == self.relations:
                return max(e, 1)  # the zero module's map is zero at e = 1
        return None

    def _kernel_chain(self) -> tuple[Ideal, int]:
        """Stabilized iterated-kernel chain and the first e where it repeats.

        Level e is K_e = (relations^[q^e] : f^(1 + q + ... + q^(e-1))), the
        level-e kernel ideal of the full quotient R/relations, not cut down
        to the ambient ideal.  Keeping the chain at this level makes its
        stabilized value depend only on (relations, multiplier), which is
        what makes minimalize insensitive to the choice of ambient
        presentation; submodule-level answers intersect afterwards.

        Frobenius is flat on F_p[x], so (I : g)^[q] = (I^[q] : g^q); hence
        K_{e+1} = (K_e^[q] : f), one :func:`kernel_step` per level, walked
        from K_0 = relations to its first repeat.  The length is the first
        e >= 1 with K_{e+1} = K_e (1 when the walk stops at K_0); neither
        answer depends on whether the module is valid.  A chain that climbs
        past ``_KERNEL_BUDGET`` levels, read at each call, raises
        :class:`ResourceError` carrying the last level it reached.
        """
        e_max = _KERNEL_BUDGET
        step = partial(kernel_step, self.multiplier)
        levels = list(islice(walk(step, self.relations.canonical()), e_max + 2))
        if len(levels) > e_max + 1:
            raise ResourceError(
                f"iterated kernel chain did not stabilize within {e_max} levels",
                partial=levels[-1],
            )
        return levels[-1], max(len(levels) - 1, 1)

    def nilpotent_part(self) -> Ideal:
        """Ideal presenting the largest submodule killed by some iterate.

        The returned ideal J satisfies relations <= J <= ambient and J
        modulo the relations is the union of the iterated kernels inside
        this module.
        """
        part, _ = self._kernel_chain()
        return part.intersection(self.ambient).canonical()

    # -- the two minimalization moves --------------------------------------

    def mod_nilpotent(self) -> "FrobModule":
        """Quotient by the largest iterate-killed submodule.

        The result presents the same quotient module with the stabilized
        kernel chain as its relations; the new relations depend only on the
        old relations and the multiplier, never on the ambient ideal, so
        every ambient presentation of one module is carried to one and the
        same quotient presentation.  The structural map of the result is
        injective; that is checked, not assumed, and with no kernel step run
        again: the chain ends at its own kernel step, which must meet the
        new ambient ideal in the new relations.
        """
        part, _ = self._kernel_chain()
        out = FrobModule(part, (self.ambient + part).canonical(), self.multiplier)
        if not out._certificate(part, out.ambient).structural_map_injective:
            raise InvariantError(
                "quotient by the stabilized kernel chain must have an "
                "injective structural map"
            )
        return out

    def fr_inverse(self) -> "FrobModule":
        """Shrink the ambient ideal to the smallest one reached by the map.

        Replaces ambient with :func:`shrink_step` of it.  Iterating this
        step descends to the minimal model's ambient ideal.
        """
        shrunk = shrink_step(self.relations, self.multiplier, self.ambient)
        return FrobModule(self.relations, shrunk, self.multiplier)

    def minimalize(self, iteration_budget: int = 64) -> MinimalizeReport:
        """Compute the minimal model and certify it.

        First quotients by the stabilized iterated-kernel chain, which
        costs one colon by the multiplier per level, then iterates the
        ambient shrinking step to its fixed point.  The certificate reads
        both facts off the two walks' last ideals, so no step runs again.

        The result is presentation independent: the new relations depend
        only on (relations, multiplier), and replacing this module by its
        quotient modulo nilpotents or by its shrunken submodule leads to
        the identical ideal pair.  A module whose minimal model is zero
        comes out with relations equal to ambient (the stabilized kernel
        chain on both sides).  ``iteration_budget`` must be an integer >= 0.
        """
        check_int(iteration_budget, "the iteration budget", 0)
        relations_min, chain_length = self._kernel_chain()
        step = partial(shrink_step, relations_min, self.multiplier)
        start = (self.ambient + relations_min).canonical()
        chain = list(islice(walk(step, start), iteration_budget + 2))
        result = FrobModule(relations_min, chain[-1], self.multiplier)
        iterations = len(chain) - 1
        if iterations > iteration_budget:
            raise ResourceError(
                f"ambient shrinking did not reach a fixed point within "
                f"{iteration_budget} iterations",
                partial=result,
            )
        certificate = result._certificate(relations_min, chain[-1])
        if not certificate.holds:
            raise InvariantError(
                "minimal model certificate failed on the computed fixed point"
            )
        return MinimalizeReport(
            result=result,
            kernel_chain_length=chain_length,
            fr_iterations=iterations,
            certificate=certificate,
        )

    def _certificate(self, kernel: Ideal, shrunk: Ideal) -> Certificate:
        # kernel_step(f, relations) and the ambient's shrink_step, or ideals equal to them
        injective = kernel.intersection(self.ambient) == self.relations
        return Certificate(injective, shrunk == self.ambient)

    def certify(self) -> Certificate:
        """Check the two facts that make this presentation minimal, on fresh steps.

        Injective: (relations^[q] : f) meets the ambient ideal in the relations.
        Fixed: the shrink step of the ambient ideal returns it.
        """
        kernel = kernel_step(self.multiplier, self.relations)
        return self._certificate(kernel, self.fr_inverse().ambient)

    def is_minimal(self) -> bool:
        """True when the structural map is injective and shrinking fixes it."""
        return self.certify().holds

    def nil_equivalent(self, other: "FrobModule") -> bool:
        """Whether both presentations share one minimal model.

        Only defined for modules over the same ring with the same
        multiplier; anything else raises.
        """
        check_member(other, FrobModule, "the comparison partner", self.ring)
        if other.multiplier != self.multiplier:
            raise DomainError(
                "comparison is supported only for matching multipliers"
            )
        return self.minimalize().result == other.minimalize().result
