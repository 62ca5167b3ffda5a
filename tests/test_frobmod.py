"""Module validation, kernels, nilpotency, minimal models."""

from __future__ import annotations

import ast
import pathlib
import random
from itertools import islice

import pytest

import fsing.frobmod as frobmod
from fsing import (
    DomainError,
    FrobModule,
    Ideal,
    ResourceError,
    Ring,
    RingMismatchError,
    ValidationError,
    ideal_root,
    iterate_exponent,
)

from conftest import module_pool, rand_module, valid_multipliers

R1 = Ring(p=2, var_names=("x",))
R2 = Ring(p=2, var_names=("x", "y"))
R3 = Ring(p=3, var_names=("x",))

POOL_RINGS = [
    Ring(p=2, var_names=("x",)),
    Ring(p=2, var_names=("x", "y")),
    Ring(p=3, var_names=("x",)),
    Ring(p=3, var_names=("x", "y")),
]


def principal(ring: Ring, f) -> FrobModule:
    return FrobModule.principal(ring(f))


def direct_kernel(module: FrobModule, e: int) -> Ideal:
    # level-e iterated kernel in one colon, independent of the recurrence
    f_e = module.multiplier ** iterate_exponent(module.ring.q, e)
    return module.relations.bracket_power(e).colon(f_e)


def counted_steps(monkeypatch, name: str) -> list:
    # every call frobmod makes to its step ``name`` from now on, by its
    # arguments
    calls = []
    step = getattr(frobmod, name)

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(frobmod, name, counted)
    return calls


# Each step has one home: the names each may be referenced from.
STEP_HOMES = {"colon": "kernel_step", "ideal_root": "shrink_step"}


def step_copies(tree: ast.AST) -> set[tuple[str, str]]:
    """(name, scope) for every colon or ideal_root reached outside its home."""
    found: set[tuple[str, str]] = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = (
                child.attr if isinstance(child, ast.Attribute)
                else child.id if isinstance(child, ast.Name)
                else None
            )
            if name in STEP_HOMES and STEP_HOMES[name] not in scope:
                found.add((name, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(tree, ())
    return found


class TestWalk:
    @staticmethod
    def chains():
        # an ascending colon chain and a descending shrink chain, each
        # with its step, its start and its direction
        (x,) = R1.gens
        k8 = FrobModule(Ideal(R1, (x**8,)), Ideal(R1, (R1.one,)), x**9)

        def colon_step(kernel):
            return kernel.bracket_power(1).colon(k8.multiplier).canonical()

        x6 = FrobModule(Ideal(R1, (x**6,)), Ideal(R1, (R1.one,)), x**6)

        def shrink(ideal):
            return frobmod.shrink_step(x6.relations, x6.multiplier, ideal)

        yield colon_step, colon_step(k8.relations), "ascending"
        yield shrink, x6.ambient.canonical(), "descending"

    @staticmethod
    def counting(step):
        calls = []

        def counted(ideal):
            calls.append(ideal)
            return step(ideal)

        return counted, calls

    def test_start_first_and_no_repeat(self):
        for step, start, direction in self.chains():
            items = list(frobmod.walk(step, start))
            assert items[0] is start
            assert len(items) >= 3
            for a, b in zip(items, items[1:]):
                assert a != b
                assert (a <= b) if direction == "ascending" else (b <= a)
            assert step(items[-1]) == items[-1]

    def test_taking_k_items_runs_k_minus_one_steps(self):
        for step, start, _ in self.chains():
            length = len(list(frobmod.walk(step, start)))
            for k in range(1, length + 1):
                counted, calls = self.counting(step)
                assert len(list(islice(frobmod.walk(counted, start), k))) == k
                assert len(calls) == k - 1
            # running out takes one more step, to see the repeat
            counted, calls = self.counting(step)
            list(frobmod.walk(counted, start))
            assert len(calls) == length


class TestOneHomePerStep:
    def test_frobmod_colons_and_roots_only_in_their_steps(self):
        source = pathlib.Path(frobmod.__file__).read_text()
        assert step_copies(ast.parse(source)) == set()

    @pytest.mark.parametrize(
        "source",
        [
            "def structural_kernel(self):\n    return self.relations.colon(f)",
            "def shrink_step(f, I):\n    return I.colon(f)",
            "def f(I):\n    step = I.colon\n    return step(g)",
            "def kernel_step(f, I):\n    return ideal_root(I, 1)",
            "class M:\n    def fr_inverse(self):\n        return frobroot.ideal_root(J, 1)",
        ],
    )
    def test_the_scan_finds_a_copy(self, source):
        assert step_copies(ast.parse(source))


class TestKernelStep:
    def test_stable_relations_take_one_step(self, monkeypatch):
        # K_1 = ((x^2) : x) = (x) = K_0: the walk stops at K_0 after one colon
        (x,) = R1.gens
        module = FrobModule.validate(Ideal(R1, (x,)), Ideal(R1, (R1.one,)), x)
        calls = counted_steps(monkeypatch, "kernel_step")
        assert module._kernel_chain() == (Ideal(R1, (x,)), 1)
        assert len(calls) == 1

    def test_a_climbing_chain_takes_one_step_past_its_length(self, monkeypatch):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**8,)), Ideal(R1, (R1.one,)), x**9)
        calls = counted_steps(monkeypatch, "kernel_step")
        chain, length = module._kernel_chain()
        assert chain == Ideal(R1, (R1.one,)) and length == 4
        assert len(calls) == length + 1

    def test_structural_kernel_takes_one_step(self, monkeypatch):
        calls = counted_steps(monkeypatch, "kernel_step")
        for module in module_pool(137, 12, POOL_RINGS):
            calls.clear()
            module.structural_kernel()
            assert calls == [(module.multiplier, module.relations)]


class TestIterateExponent:
    @pytest.mark.parametrize(
        "q,e,expected", [(2, 0, 0), (2, 1, 1), (2, 3, 7), (3, 2, 4), (5, 3, 31)]
    )
    def test_geometric_sums(self, q, e, expected):
        assert iterate_exponent(q, e) == expected

    def test_non_integer_level_rejected(self):
        with pytest.raises(DomainError):
            iterate_exponent(2, 1.5)

    def test_recursion(self):
        for q in (2, 3, 4, 5, 9):
            for e in range(0, 6):
                assert iterate_exponent(q, e + 1) == 1 + q * iterate_exponent(q, e)


class TestValidate:
    def test_valid_example(self):
        (x,) = R1.gens
        module = FrobModule.validate(
            Ideal(R1, (x,)), Ideal(R1, (R1.one,)), x**2
        )
        assert module.relations == Ideal(R1, (x,))

    def test_multiplier_leaving_relations_rejected(self):
        x, y = R2.gens
        with pytest.raises(ValidationError) as err:
            FrobModule.validate(Ideal(R2, (x,)), Ideal(R2, (R2.one,)), y)
        assert err.value.witness == x

    def test_nested_ideals_required(self):
        x, y = R2.gens
        with pytest.raises(ValidationError):
            FrobModule.validate(Ideal(R2, (x,)), Ideal(R2, (y,)), R2.zero)

    def test_ambient_invariance_required(self):
        (x,) = R1.gens
        # relations fine (zero ideal) but x does not carry (x) into (x^2)
        with pytest.raises(ValidationError):
            FrobModule.validate(Ideal(R1, ()), Ideal(R1, (x,)), R1.one)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            FrobModule.validate(Ideal(R1, ()), Ideal(R2, (R2.one,)), R2.one)

    def test_zero_multiplier_always_valid(self):
        x, y = R2.gens
        module = FrobModule.validate(
            Ideal(R2, (x,)), Ideal(R2, (x, y)), R2.zero
        )
        assert module.is_zero_module() is False


class TestStructuralKernel:
    def test_zero_multiplier_kills_everything(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x,)), Ideal(R1, (R1.one,)), R1.zero)
        assert module.structural_kernel() == module.ambient

    def test_principal_module_injective(self):
        (x,) = R1.gens
        assert principal(R1, "x^2").structural_kernel().is_zero()

    def test_kernel_between_relations_and_ambient(self):
        rng = random.Random(97)
        for _ in range(25):
            module = rand_module(rng, POOL_RINGS[_ % 4])
            kernel = module.structural_kernel()
            assert module.relations <= kernel
            assert kernel <= module.ambient

    def test_kernel_is_exactly_the_preimage(self):
        # membership characterization: a in kernel iff f*a in relations^[q]
        rng = random.Random(101)
        from conftest import rand_poly

        for _ in range(20):
            module = rand_module(rng, POOL_RINGS[_ % 4])
            if not module.multiplier:
                continue
            kernel = module.structural_kernel()
            bracket = module.relations.bracket_power(1)
            probe = rand_poly(rng, module.ring, 2, 3)
            if module.ambient.contains(probe):
                assert kernel.contains(probe) == bracket.contains(
                    module.multiplier * probe
                )


class TestNilpotency:
    def test_example_order_two(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**2,)), Ideal(R1, (R1.one,)), x**3)
        assert module.nilpotency_order() == 2

    def test_zero_multiplier_is_order_one(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x,)), Ideal(R1, (R1.one,)), R1.zero)
        assert module.nilpotency_order() == 1

    def test_injective_module_hits_budget(self):
        (x,) = R1.gens
        module = principal(R1, "x")
        assert module.nilpotency_order(5) is None

    def test_non_integer_budget_rejected(self):
        with pytest.raises(DomainError):
            principal(R1, "x").nilpotency_order(2.0)

    def test_zero_module_is_order_one(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x,)), Ideal(R1, (x,)), x)
        assert module.nilpotency_order() == 1

    def test_known_orders(self):
        (x,) = R1.gens
        one = Ideal(R1, (R1.one,))
        assert FrobModule(Ideal(R1, (x**4,)), one, x**5).nilpotency_order() == 3
        k8 = FrobModule(Ideal(R1, (x**8,)), one, x**9)
        assert k8.nilpotency_order() == 4
        assert k8.nilpotency_order(3) is None
        assert k8.nilpotency_order(4) == 4

    def test_non_nilpotent_module_returns_at_a_large_budget(self):
        # the chain from the ambient ideal stops above the relations, so the
        # answer is None without walking all 32 levels
        R = Ring(p=3, var_names=("x", "y"))
        module = FrobModule.validate(
            Ideal(R, (R("2*x+y"),)),
            Ideal(R, (R("2*x+y"), R("2*x"))),
            R("2*x^2*y^3+2*x*y^4+2*y^5"),
        )
        assert module.nilpotency_order(32) is None

    def test_shrink_steps_within_the_budget(self, monkeypatch):
        # the walk starts at the ambient ideal itself: a fixed ambient ideal
        # costs one step, the zero module none, and no walk passes e_max
        (x,) = R1.gens
        one = Ideal(R1, (R1.one,))
        modules = [
            FrobModule(Ideal(R1, (x**8,)), one, x**9),
            FrobModule(Ideal(R1, (x,)), Ideal(R1, (x,)), x),
        ]
        modules += module_pool(131, 20, POOL_RINGS)
        calls = counted_steps(monkeypatch, "shrink_step")
        for module in modules:
            for e_max in (1, 2, 6):
                calls.clear()
                module.nilpotency_order(e_max)
                assert len(calls) <= e_max
        calls.clear()
        assert modules[1].nilpotency_order() == 1 and not calls
        for module in (principal(R1, "x"), principal(R3, "x")):
            assert module.fr_inverse().ambient == module.ambient != module.relations
            calls.clear()
            assert module.nilpotency_order(5) is None
            assert len(calls) == 1

    def test_order_matches_definition(self):
        # the reported order is the first level whose iterate vanishes, by
        # the definition: f^(1+q+...+q^(e-1)) * ambient <= relations^[q^e]
        def vanishes(module: FrobModule, e: int) -> bool:
            fe = module.multiplier ** iterate_exponent(module.ring.q, e)
            bracket = module.relations.bracket_power(e)
            return all(bracket.contains(fe * g) for g in module.ambient.gens)

        rng = random.Random(103)
        (x,) = R1.gens
        one = Ideal(R1, (R1.one,))
        modules = [
            FrobModule(Ideal(R1, (x**2,)), one, x**3),
            FrobModule(Ideal(R1, (x**4,)), one, x**5),
            FrobModule(Ideal(R1, (x**8,)), one, x**9),
        ]
        modules += [rand_module(rng, POOL_RINGS[i % 4]) for i in range(20)]
        for module in modules:
            first = next((e for e in range(1, 7) if vanishes(module, e)), None)
            assert module.nilpotency_order(6) == first


class TestNilpotentPart:
    def test_example_chain(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**2,)), Ideal(R1, (R1.one,)), x**3)
        assert module.nilpotent_part() == Ideal(R1, (R1.one,))

    def test_injective_module_has_trivial_part(self):
        (x,) = R1.gens
        assert principal(R1, "x^2").nilpotent_part().is_zero()

    def test_chain_is_ascending(self):
        rng = random.Random(107)
        for _ in range(20):
            module = rand_module(rng, POOL_RINGS[_ % 4])
            if not module.multiplier:
                continue
            prev = direct_kernel(module, 1)
            for e in (2, 3):
                nxt = direct_kernel(module, e)
                assert prev <= nxt
                prev = nxt

    def test_recurrence_matches_direct_levels(self):
        # the chain built by K_{e+1} = (K_e^[q] : f) stops at the first
        # level where the direct colons by f^(1+q+...+q^(e-1)) repeat
        rng = random.Random(107)
        (x,) = R1.gens
        modules = [FrobModule(Ideal(R1, (x**8,)), Ideal(R1, (R1.one,)), x**9)]
        modules += [rand_module(rng, POOL_RINGS[i % 4]) for i in range(20)]
        for module in modules:
            if not module.multiplier:
                continue
            chain, length = module._kernel_chain(32)
            levels = [direct_kernel(module, e) for e in range(1, length + 2)]
            assert chain == levels[length - 1]
            assert levels[length - 1] == levels[length]
            for e in range(1, length):
                assert levels[e - 1] != levels[e]

    def test_budget_exhaustion_raises(self):
        (x,) = R1.gens
        # the chain for this module never stabilizes within a one-step budget
        k8 = Ideal(R1, (x**8,))
        module = FrobModule(k8, Ideal(R1, (R1.one,)), x**9)
        with pytest.raises(ResourceError) as info:
            module._kernel_chain(1)
        assert isinstance(info.value.partial, Ideal)
        assert info.value.partial == direct_kernel(module, 2)

    def test_part_is_nilpotent(self):
        rng = random.Random(109)
        for _ in range(15):
            module = rand_module(rng, POOL_RINGS[_ % 4])
            part = module.nilpotent_part()
            sub = FrobModule(module.relations, part, module.multiplier)
            assert sub.nilpotency_order(34) is not None


class TestModNilpotent:
    def test_injective_afterwards(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**2,)), Ideal(R1, (R1.one,)), x**3)
        bar = module.mod_nilpotent()
        assert bar.structural_kernel() == bar.relations
        assert bar.relations == Ideal(R1, (R1.one,))

    def test_identity_on_injective_modules(self):
        module = principal(R1, "x^2")
        bar = module.mod_nilpotent()
        assert bar.relations == module.relations
        assert bar.ambient == module.ambient


class TestFrInverse:
    def test_principal_examples(self):
        (x,) = R1.gens
        assert principal(R1, "x").fr_inverse().ambient.is_unit()
        assert principal(R1, "x^2").fr_inverse().ambient == Ideal(R1, (x,))

    def test_zero_multiplier_collapses(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**2,)), Ideal(R1, (x,)), R1.zero)
        assert module.fr_inverse().ambient == module.relations

    def test_smallest_ideal_with_the_reach_property(self):
        # N' = relations + root(f*N) is the least J with relations <= J
        # and f*N <= J^[q]; check both properties and minimality against
        # randomly shrunken candidates
        rng = random.Random(113)
        for _ in range(20):
            module = rand_module(rng, POOL_RINGS[_ % 4])
            shrunk = module.fr_inverse().ambient
            assert module.relations <= shrunk
            bracket = shrunk.bracket_power(1)
            for g in module.ambient.gens:
                assert bracket.contains(module.multiplier * g)

    def test_universal_property_against_probes(self):
        rng = random.Random(127)
        from conftest import rand_monomial

        for i in range(30):
            module = rand_module(rng, POOL_RINGS[i % 4])
            ring = module.ring
            shrunk = module.fr_inverse().ambient
            # the ambient itself always qualifies, so shrunk sits inside it
            assert shrunk <= module.ambient
            gens = list(module.relations.gens)
            gens += [
                g * rand_monomial(rng, ring, 1) for g in module.ambient.gens
            ]
            candidate = Ideal(ring, gens)
            reaches = all(
                candidate.bracket_power(1).contains(module.multiplier * g)
                for g in module.ambient.gens
            )
            if reaches:
                assert shrunk <= candidate


class TestMinimalize:
    def test_already_minimal(self):
        report = principal(R1, "x").minimalize()
        assert report.result.ambient.is_unit()
        assert report.result.relations.is_zero()
        assert report.fr_iterations == 0
        assert report.kernel_chain_length == 1

    def test_principal_square(self):
        (x,) = R1.gens
        report = principal(R1, "x^2").minimalize()
        assert report.result.ambient == Ideal(R1, (x,))
        assert report.result.relations.is_zero()
        assert report.fr_iterations == 1
        assert report.certificate.structural_map_injective
        assert report.certificate.fr_fixed

    def test_zero_multiplier_gives_zero_module(self):
        report = principal(R1, "0").minimalize()
        assert report.result.is_zero_module()
        assert report.result.ambient.is_unit()

    def test_zero_module_presentations_share_one_result(self):
        (x,) = R1.gens
        nil = FrobModule(Ideal(R1, (x**8,)), Ideal(R1, (R1.one,)), x**9)
        direct = nil.minimalize().result
        via_inverse = nil.fr_inverse().minimalize().result
        assert direct == via_inverse
        assert direct.is_zero_module()

    def test_iteration_budget(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**6,)), Ideal(R1, (R1.one,)), x**6)
        with pytest.raises(ResourceError):
            module.minimalize(iteration_budget=1)

    def test_iteration_budget_partial(self):
        # the partial keeps the stabilized relations and the last ambient
        # ideal the walk reached: the third shrink step for a budget of 2
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**6,)), Ideal(R1, (R1.one,)), x**6)
        assert module.minimalize().fr_iterations == 3
        with pytest.raises(ResourceError) as info:
            module.minimalize(iteration_budget=2)
        partial = info.value.partial
        assert isinstance(partial, FrobModule)
        relations, _ = module._kernel_chain()
        ambient = (module.ambient + relations).canonical()
        for _ in range(3):
            ambient = frobmod.shrink_step(relations, module.multiplier, ambient)
        assert partial == FrobModule(relations, ambient, module.multiplier)

    @pytest.mark.parametrize("budget", [-5, "3", 1.5, None])
    def test_iteration_budget_must_be_a_nonnegative_integer(self, budget):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**6,)), Ideal(R1, (R1.one,)), x**6)
        with pytest.raises(DomainError, match="iteration budget"):
            module.minimalize(iteration_budget=budget)
        # zero is a budget: it admits modules that are already fixed
        assert principal(R1, "x").minimalize(iteration_budget=0).fr_iterations == 0

    def test_report_counters(self):
        (x,) = R1.gens
        module = FrobModule(Ideal(R1, (x**6,)), Ideal(R1, (R1.one,)), x**6)
        report = module.minimalize()
        assert report.result.ambient == Ideal(R1, (x**5,))
        assert report.fr_iterations == 3
        assert report.kernel_chain_length == 1


    @staticmethod
    def stepping_modules():
        # no shrink, one shrink, three shrinks, and a chain climbing 4 levels
        (x,) = R1.gens
        yield principal(R1, "x")
        yield principal(R1, "x^2")
        yield FrobModule(Ideal(R1, (x**6,)), Ideal(R1, (R1.one,)), x**6)
        yield FrobModule(Ideal(R1, (x**8,)), Ideal(R1, (R1.one,)), x**9)
        yield from module_pool(137, 12, POOL_RINGS)

    def test_fixed_point_is_checked_once_by_the_walk(self, monkeypatch):
        # the shrinking walk's last step is the certificate's fixedness
        calls = counted_steps(monkeypatch, "shrink_step")
        for module in self.stepping_modules():
            calls.clear()
            report = module.minimalize()
            assert len(calls) == report.fr_iterations + 1

    def test_kernel_steps_are_the_chain_walks_alone(self, monkeypatch):
        # the chain's last colon is the certificate's injectivity
        calls = counted_steps(monkeypatch, "kernel_step")
        for module in self.stepping_modules():
            calls.clear()
            module._kernel_chain()
            chain_calls = list(calls)
            calls.clear()
            module.minimalize()
            assert calls == chain_calls

    def test_certify_on_the_result_runs_both_steps_afresh(self, monkeypatch):
        # nothing minimalize computed is kept on the module it returns
        kernels = counted_steps(monkeypatch, "kernel_step")
        shrinks = counted_steps(monkeypatch, "shrink_step")
        for module in self.stepping_modules():
            result = module.minimalize().result
            kernels.clear()
            shrinks.clear()
            assert result.certify().holds
            assert kernels == [(result.multiplier, result.relations)]
            assert shrinks == [(result.relations, result.multiplier, result.ambient)]


class TestIsMinimal:
    def test_examples(self):
        (x,) = R1.gens
        assert principal(R1, "x").is_minimal()
        assert not principal(R1, "x^2").is_minimal()
        assert principal(R3, "x").is_minimal()
        assert not FrobModule(
            Ideal(R1, (x**2,)), Ideal(R1, (R1.one,)), x**3
        ).is_minimal()

    def test_zero_module_is_minimal(self):
        (x,) = R1.gens
        assert FrobModule(Ideal(R1, (x,)), Ideal(R1, (x,)), x).is_minimal()

    def test_minimalize_output_is_minimal(self):
        pool = module_pool(131, 20, POOL_RINGS)
        for module in pool:
            assert module.minimalize().result.is_minimal()


class TestNilEquivalent:
    def test_both_reduction_moves_preserve_the_class(self):
        pool = module_pool(137, 12, POOL_RINGS)
        for module in pool:
            assert module.nil_equivalent(module.mod_nilpotent())
            assert module.nil_equivalent(module.fr_inverse())

    def test_distinct_minimal_models_differ(self):
        (x,) = R1.gens
        # same multiplier, same minimal ambient, but different relations
        other = FrobModule(Ideal(R1, (x**2,)), Ideal(R1, (R1.one,)), x**2)
        assert not principal(R1, "x^2").nil_equivalent(other)

    def test_mismatched_multipliers_rejected(self):
        with pytest.raises(DomainError):
            principal(R1, "x").nil_equivalent(principal(R1, "x^2"))

    def test_non_module_partner_rejected(self):
        with pytest.raises(DomainError, match="FrobModule"):
            principal(R1, "x").nil_equivalent(R1("x"))

    def test_mismatched_rings_rejected(self):
        with pytest.raises(RingMismatchError):
            principal(R1, "x").nil_equivalent(principal(R3, "x"))


class TestValidMultiplierPool:
    def test_pool_members_validate(self):
        rng = random.Random(139)
        for i in range(30):
            module = rand_module(rng, POOL_RINGS[i % 4])
            FrobModule.validate(module.relations, module.ambient, module.multiplier)
