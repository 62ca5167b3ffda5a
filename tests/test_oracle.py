"""Brute-force oracles: floors, divisibility membership, certificates."""

from __future__ import annotations

import ast
import pathlib
import random

import pytest

import fsing
from fsing import Ideal, ResourceError, Ring
from fsing.oracle import (
    _antichains,
    bracket_membership_oracle,
    express_in_ideal,
    monomial_root_oracle,
    smallest_ideal_bruteforce,
)
from fsing.errors import DomainError

from conftest import rand_poly

R1 = Ring(p=2, var_names=("x",))
R2 = Ring(p=2, var_names=("x", "y"))
R3 = Ring(p=3, var_names=("x", "y"))
R4 = Ring(p=2, var_names=("x",), s=2)


class TestMonomialRootOracle:
    @pytest.mark.parametrize(
        "exponents,q,e,expected",
        [
            ((3, 2), 2, 1, (1, 1)),
            ((5,), 2, 2, (1,)),
            ((8, 9), 3, 2, (0, 1)),
            ((0, 0), 5, 3, (0, 0)),
            ((7,), 2, 3, (0,)),
        ],
    )
    def test_floors(self, exponents, q, e, expected):
        assert monomial_root_oracle(exponents, q, e) == expected


class TestBracketMembershipOracle:
    def test_known_values(self):
        assert bracket_membership_oracle(R1("x^4"), 2)
        assert not bracket_membership_oracle(R1("x^3"), 2)
        assert bracket_membership_oracle(R2("x^2*y + x*y^2"), 1)
        assert not bracket_membership_oracle(R2("x*y"), 1)
        assert bracket_membership_oracle(R2("0"), 3)

    def test_agrees_with_basis_membership(self):
        rng = random.Random(29)
        for ring in (R1, R2, R3, R4):
            bracket = {
                e: Ideal(ring, tuple(g ** (ring.q**e) for g in ring.gens))
                for e in (1, 2)
            }
            for _ in range(15):
                f = rand_poly(rng, ring, 3, 2 * ring.q)
                for e in (1, 2):
                    assert bracket_membership_oracle(f, e) == bracket[e].contains(f)


class TestAntichains:
    def test_one_variable_counts(self):
        candidates = [(0,), (1,), (2,)]
        chains = list(_antichains(candidates, 1000))
        # a chain poset has only the empty set and singletons
        assert sorted(chains) == [(), ((0,),), ((1,),), ((2,),)]

    def test_two_variable_cap_one(self):
        candidates = sorted(
            (a, b) for a in range(2) for b in range(2)
        )
        chains = list(_antichains(candidates, 1000))
        assert len(chains) == 6
        assert ((0, 1), (1, 0)) in chains

    def test_grid_count_matches_lattice_paths(self):
        # antichains of the 9x9 divisibility grid = monomial ideals with
        # exponents <= 8 = central binomial count C(18, 9)
        candidates = sorted((a, b) for a in range(9) for b in range(9))
        count = sum(1 for _ in _antichains(candidates, 10**6))
        assert count == 48620

    def test_guard(self):
        candidates = sorted((a, b) for a in range(9) for b in range(9))
        with pytest.raises(ResourceError):
            list(_antichains(candidates, 100))


class TestSmallestIdealBruteforce:
    def test_worked_monomial(self):
        found = smallest_ideal_bruteforce(R2("x^3*y^2"), 1, 4)
        assert found == Ideal(R2, (R2("x*y"),))

    def test_char_three(self):
        found = smallest_ideal_bruteforce(R3("x^8*y^9"), 1, 4)
        assert found == Ideal(R3, (R3("x^2*y^3"),))

    def test_higher_frobenius_power(self):
        found = smallest_ideal_bruteforce(R4("x^5"), 1, 4)
        assert found == Ideal(R4, (R4("x"),))

    def test_level_two(self):
        found = smallest_ideal_bruteforce(R1("x^5"), 2, 4)
        assert found == Ideal(R1, (R1("x"),))

    def test_zero_input(self):
        assert smallest_ideal_bruteforce(R2("0"), 1, 2).is_zero()

    def test_bad_level(self):
        with pytest.raises(DomainError):
            smallest_ideal_bruteforce(R1("x"), 0, 2)

    def test_enumeration_guard(self):
        with pytest.raises(ResourceError):
            smallest_ideal_bruteforce(R2("x*y"), 1, 8, max_ideals=100)

    def test_matches_root_on_random_monomials(self):
        from fsing import poly_root

        rng = random.Random(31)
        for _ in range(25):
            ring = rng.choice([R1, R2, R3])
            exponents = tuple(rng.randint(0, 8) for _ in range(ring.n))
            g = ring.monomial(exponents)
            e = rng.randint(1, 2)
            if ring.q**e > 9:
                e = 1
            # exponents <= 8 and q >= 2 keep every floor <= 4
            assert smallest_ideal_bruteforce(g, e, 4) == poly_root(g, e)


class TestExpressInIdeal:
    def test_single_generator(self):
        cofactors = express_in_ideal(R1("x^3 + x"), [R1("x")], 2)
        assert cofactors == [R1("x^2 + 1")]

    def test_two_generators(self):
        f = R2("x^2*y + x*y^2")
        cofactors = express_in_ideal(f, [R2("x^2"), R2("y^2")], 1)
        assert cofactors is not None
        total = sum(
            (h * g for h, g in zip(cofactors, [R2("x^2"), R2("y^2")])),
            R2.zero,
        )
        assert total == f

    def test_nonmember(self):
        assert express_in_ideal(R2("x*y"), [R2("x^2"), R2("y^2")], 3) is None
        assert express_in_ideal(R1("x"), [R1("x^2")], 4) is None

    def test_zero_generators_in_list(self):
        cofactors = express_in_ideal(R1("x^2"), [R1.zero, R1("x")], 1)
        assert cofactors is not None
        assert cofactors[0] == R1.zero
        assert cofactors[1] * R1("x") == R1("x^2")

    def test_all_zero_generators(self):
        assert express_in_ideal(R1("x"), [R1.zero], 3) is None
        assert express_in_ideal(R1.zero, [R1.zero, R1.zero], 3) == [
            R1.zero,
            R1.zero,
        ]

    def test_random_combinations_are_recovered(self):
        rng = random.Random(37)
        for _ in range(20):
            ring = rng.choice([R1, R2, R3])
            gens = [rand_poly(rng, ring, 2, 2) for _ in range(2)]
            cofs = [rand_poly(rng, ring, 2, 2) for _ in range(2)]
            f = sum((h * g for h, g in zip(cofs, gens)), ring.zero)
            found = express_in_ideal(f, gens, 4)
            assert found is not None
            total = sum((h * g for h, g in zip(found, gens)), ring.zero)
            assert total == f

    def test_certificates_are_sound(self):
        # whenever the search claims membership, the basis agrees
        rng = random.Random(41)
        hits = 0
        for _ in range(30):
            ring = rng.choice([R1, R2])
            gens = [rand_poly(rng, ring, 2, 2) for _ in range(2)]
            f = rand_poly(rng, ring, 2, 3)
            if express_in_ideal(f, gens, 3) is not None:
                assert Ideal(ring, tuple(gens)).contains(f)
                hits += 1
        assert hits >= 5


def _imports_oracle(node: ast.AST) -> bool:
    # names an import statement inside src/fsing may bind, made absolute
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level <= 1:
        base = ".".join(filter(None, ["fsing" if node.level else "", node.module]))
        names = [base] + [f"{base}.{a.name}" for a in node.names]
    else:
        return False
    return any(n == "fsing.oracle" or n.startswith("fsing.oracle.") for n in names)


def test_only_the_cli_imports_the_oracles():
    # the fast paths never lean on the checks that certify them; only the
    # ``verify`` subcommand runs an oracle
    package = pathlib.Path(fsing.__file__).parent
    importers = sorted(
        path.name
        for path in package.glob("*.py")
        if any(map(_imports_oracle, ast.walk(ast.parse(path.read_text()))))
    )
    assert importers == ["cli.py"]


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _rebinds_module_state(tree: ast.AST, module_names: set[str]) -> list[int]:
    # lines that use ``global`` or store into, delete or setattr an
    # attribute of an imported fsing module
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {
                a.asname or "fsing"
                for a in node.names
                if a.name == "fsing" or a.name.startswith("fsing.")
            }
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "fsing" or (node.level and not node.module)
        ):
            aliases |= {a.asname or a.name for a in node.names if a.name in module_names}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if _root_name(node.value) in aliases:
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and node.args
            and _root_name(node.args[0]) in aliases
        ):
            lines.append(node.lineno)
    return lines


def test_no_module_rebinds_package_state():
    # the package keeps no module-level mutable state: the S-pair cap, for
    # one, lives in a context variable rather than a rebound global
    package = pathlib.Path(fsing.__file__).parent
    module_names = {path.stem for path in package.glob("*.py")}
    offenders = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _rebinds_module_state(ast.parse(path.read_text()), module_names))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source,expected",
    [
        ("from . import groebner\ngroebner.CAP = 1", True),
        ("from fsing import groebner as g\ng.CAP += 1", True),
        ("import fsing.groebner\nfsing.groebner.CAP = 1", True),
        ("from . import groebner\nsetattr(groebner, 'CAP', 1)", True),
        ("from . import groebner\ndel groebner.CAP", True),
        ("def f():\n    global CAP\n    CAP = 1", True),
        ("from .groebner import Ideal\nIdeal.cap = 1", False),
        ("from . import groebner\ncap = groebner.CAP", False),
        ("def f(self):\n    self.cap = 1", False),
    ],
)
def test_module_state_detector(source, expected):
    lines = _rebinds_module_state(ast.parse(source), {"groebner"})
    assert bool(lines) is expected


@pytest.mark.parametrize(
    "source,expected",
    [
        ("from .oracle import monomial_root_oracle", True),
        ("from . import oracle", True),
        ("from fsing.oracle import _antichains", True),
        ("from fsing import oracle as o", True),
        ("import fsing.oracle", True),
        ("from .frobroot import poly_root", False),
        ("from . import groebner", False),
        ("import oracle", False),
    ],
)
def test_oracle_import_detector(source, expected):
    (node,) = ast.parse(source).body
    assert _imports_oracle(node) is expected


def _dead_helpers(trees: dict[str, ast.AST]) -> list[str]:
    # module-level ``_private`` functions and classes that no code in any
    # of the modules names, apart from the helper's own body
    def referenced(node: ast.AST) -> list[str]:
        return [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        ]

    everywhere: dict[str, int] = {}
    for tree in trees.values():
        for name in referenced(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            if everywhere.get(name, 0) == referenced(node).count(name):
                dead.append(f"{module}:{name}")
    return dead


def test_no_dead_helpers():
    # every private module-level helper in the package has a caller there
    package = pathlib.Path(fsing.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert _dead_helpers(trees) == []


@pytest.mark.parametrize(
    "sources,expected",
    [
        ({"a": "def _dead():\n    pass"}, ["a:_dead"]),
        ({"a": "class _Dead:\n    pass"}, ["a:_Dead"]),
        ({"a": "def _loop(n):\n    return _loop(n - 1)"}, ["a:_loop"]),
        ({"a": "def _used():\n    pass\n\ndef f():\n    return _used()"}, []),
        ({"a": "class _Used:\n    pass\n\nX = _Used"}, []),
        ({"a": "def _helper():\n    pass", "b": "from .a import _helper\n_helper()"}, []),
        ({"a": "def _helper():\n    pass", "b": "from . import a\na._helper()"}, []),
        ({"a": "def _helper():\n    pass", "b": "from .a import _helper"}, ["a:_helper"]),
        ({"a": "def f():\n    def _inner():\n        pass"}, []),
        ({"a": "def __getattr__(name):\n    pass"}, []),
        ({"a": "def public():\n    pass"}, []),
    ],
)
def test_dead_helper_detector(sources, expected):
    trees = {module: ast.parse(text) for module, text in sources.items()}
    assert _dead_helpers(trees) == expected
