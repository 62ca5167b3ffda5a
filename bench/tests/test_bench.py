"""Checks of the benchmark itself: stored references, run contract, work counts.

The reference answers in ``bench/data`` were produced by fsing; these tests
confirm them with code that shares nothing with it: sympy's Groebner bases
over GF(p) and plain dict arithmetic written here.  Run with

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

sympy = pytest.importorskip("sympy")

EXIT_CODES = {"ParseError": 3, "ResourceError": 2, "DomainError": 1, "ValidationError": 1}


def pool(name):
    return workloads.load_pool(os.path.join(BENCH, "data"), name)


# -- independent arithmetic -------------------------------------------------------


def parse(text, names, p):
    gens = sympy.symbols(names)
    expr = sympy.sympify(text.replace("^", "**"), locals=dict(zip(names, gens)))
    poly = sympy.Poly(expr, *gens, modulus=p)
    return {m: int(c) % p for m, c in poly.terms() if int(c) % p}


def mul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def power(f, m, p):
    """f**m, using (g**p)(x) = g(x**p) over F_p digit by digit."""
    n = len(next(iter(f)))
    out = {(0,) * n: 1}
    shift = 1
    while m:
        m, d = divmod(m, p)
        g = {(0,) * n: 1}
        for _ in range(d):
            g = mul(g, f, p)
        out = mul(out, {tuple(e * shift for e in k): c for k, c in g.items()}, p)
        shift *= p
    return out


def root_components(g, Q):
    comps = {}
    for m, c in g.items():
        rem = tuple(b % Q for b in m)
        comps.setdefault(rem, {})[tuple(b // Q for b in m)] = c
    return list(comps.values())


def reduced_basis(polys, names, p, order):
    """sympy's reduced basis, each element as a leading-first term list."""
    gens = sympy.symbols(names)
    exprs = [sum((c * sympy.prod([x**e for x, e in zip(gens, m)]) for m, c in f.items()), sympy.S.Zero)
             for f in polys if f]
    if not exprs:
        return []
    G = sympy.groebner(exprs, *gens, modulus=p, order=order)
    out = []
    for g in G.polys:
        out.append([[list(m), int(c) % p] for m, c in g.terms(order=order)])
    return sorted(out, key=lambda t: t[0][0])


def as_sorted(basis):
    return sorted(basis, key=lambda t: t[0][0])


# -- stored references ------------------------------------------------------------


@pytest.mark.parametrize("slot", pool("groebner-systems")["slots"], ids=lambda s: f"{s['kind']}-p{s['p']}-{s['order']}")
def test_groebner_references_match_sympy(slot):
    for variant in slot["variants"]:
        gens = [parse(t, slot["vars"], slot["p"]) for t in variant["gens"]]
        expected = reduced_basis(gens, slot["vars"], slot["p"], slot["order"])
        assert as_sorted(variant["basis"]) == expected


def _test_ideal_basis(f, m, e, names, p):
    return reduced_basis(root_components(power(f, m, p), p**e), names, p, "grevlex")


@pytest.mark.parametrize("slot", pool("fthreshold")["slots"], ids=lambda s: f"{s['job']}-p{s['p']}-e{s['e']}")
def test_fthreshold_references(slot):
    p, e, names = slot["p"], slot["e"], slot["vars"]
    f = parse(slot["f"], names, p)
    want = slot["expected"]
    Q = p**e
    if slot["job"] == "fpt":
        nu = want["nu"]
        g = power(f, nu, p)
        assert any(all(b < Q for b in m) for m in g), "f^nu must lie outside m^[q^e]"
        assert all(any(b >= Q for b in m) for m in mul(g, f, p)), "f^(nu+1) must lie inside m^[q^e]"
    elif slot["job"] == "test_ideal":
        assert as_sorted(want["basis"]) == _test_ideal_basis(f, slot["m"], e, names, p)
    else:
        for level, row in enumerate(want["levels"], start=1):
            assert row["equal"] is True
            assert row["iterated"] == row["direct"]
            m = (p**level - 1) // (p - 1)
            assert as_sorted(row["direct"]) == _test_ideal_basis(f, m, level, names, p)


@pytest.mark.parametrize("slot", pool("minmodel")["slots"], ids=lambda s: f"{s['job']}-p{s['p']}")
def test_minmodel_references(slot):
    want = slot["expected"]
    if slot["job"] == "nilpotency":
        assert want["order"] is None or 1 <= want["order"] <= slot["e_max"]
        return
    assert want["certificate"] == {"structural-map-injective": True, "fr-fixed": True}
    assert want["kernel_chain_length"] >= 1 and want["fr_iterations"] >= 0
    p, names = slot["p"], slot["vars"]
    for key in ("relations", "ambient"):
        stored = [{tuple(m): c for m, c in terms} for terms in want[key]]
        assert as_sorted(want[key]) == reduced_basis(stored, names, p, "grevlex")


def test_cli_error_expectations():
    invocations = pool("cli-batch")["invocations"]
    seen = set()
    for inv in invocations:
        errors = [r["error"] for r in inv["expected"] if "error" in r]
        seen.update(errors)
        code = EXIT_CODES[errors[0]] if errors else 0
        assert inv["expected_code"] == code, inv["argv"]
        if inv["lines"] is None:
            assert len(inv["expected"]) == 1
        else:
            assert len(inv["expected"]) == len(inv["lines"])
    assert {"ParseError", "DomainError", "ResourceError", "ValidationError"} <= seen
    fpt_errors = [
        line for inv in invocations if inv["argv"][0] == "fpt" and inv["lines"]
        for line, rec in zip(inv["lines"], inv["expected"]) if rec.get("error") == "DomainError"
    ]
    assert fpt_errors and all(line.endswith("+ 1") for line in fpt_errors)
    assert any("--budget-spairs" in inv["argv"] and inv["expected_code"] == 2 for inv in invocations)


def test_scaling_transport_is_exact():
    # x -> 2x, y -> 3y over F_7 on the basis (x^2 + y, y^2 + 1)
    stored = [[[[2, 0], 1], [[0, 1], 1]], [[[0, 2], 1], [[0, 0], 1]]]
    got = workloads.scaled_basis(stored, [2, 3], 7)
    # 4x^2 + 3y -> x^2 + 6y ; 9y^2 + 1 = 2y^2 + 1 -> y^2 + 4
    assert got == [{(2, 0): 1, (0, 1): 6}, {(0, 2): 1, (0, 0): 4}]


def test_rename_keeps_non_variable_text():
    mapping = {"x": "b", "y": "x"}
    assert workloads.rename("x^2*y + y", mapping) == "b^2*x + x"
    assert workloads.rename({"checks": [{"name": "root-bracket-containment"}]}, mapping) == {
        "checks": [{"name": "root-bracket-containment"}]
    }


# -- the run itself ------------------------------------------------------------------


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_end_to_end_contract():
    code, result, proc = run_bench("--workload", "minmodel", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


COUNT_UNITS = {"count", "degree", "bytes", "ratio"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat(workload):
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    runs = []
    for _ in range(2):
        code, result, proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "1")
        assert code == 0, proc.stderr
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
        runs.append({
            k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in COUNT_UNITS and not k.startswith("trace.")
        })
    assert runs[0] == runs[1]
    assert any(runs[0].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, proc = run_bench("--workload", "fthreshold", "--seed", "1", "--seconds", "1", "--trace", "0",
                                   cwd=tmp_path)
    assert code != 0
    assert result is None
