"""Spans around the calls into each layer of fsing, recorded from outside.

:class:`Tracer` rebinds every lookup site of the traced functions: each
``fsing.*`` module attribute and class attribute that holds one of them
(``fsing.frobmod.ideal_root`` as well as ``fsing.frobroot.ideal_root``,
``Poly.__rmul__`` as well as ``Poly.__mul__``).  A span records its name,
start, end, parent span and job id, plus a few work counts read from the
call's arguments and result.  Spans stay in memory; :meth:`Tracer.metrics`
folds them into the per-layer metrics and :meth:`Tracer.dump` writes them.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable

# (span name, module, attribute path, extra): ``extra(args, result)``
# returns the span's work counts, or None when there are none.
TARGETS: list[tuple[str, str, str, Callable[[tuple, Any], Any] | None]] = [
    ("polyring.mul", "fsing.polyring", "Poly.__mul__",
     lambda a, r: len(a[0]) * (len(a[1]) if hasattr(a[1], "terms") else 1)),
    ("polyring.pow", "fsing.polyring", "Poly.__pow__", lambda a, r: (a[1], len(r))),
    ("polyring.parse", "fsing.polyring", "parse_poly", None),
    ("groebner.buchberger", "fsing.groebner", "buchberger",
     lambda a, r: (
         len(a[0]),
         len(r),
         max((g.total_degree() for g in r), default=0),
         all(g.is_monomial() for g in a[0] if g),
     )),
    ("groebner.division", "fsing.groebner", "poly_division", None),
    ("groebner.ideal_groebner", "fsing.groebner", "Ideal.groebner", None),
    ("groebner.intersection", "fsing.groebner", "Ideal.intersection", None),
    ("groebner.colon", "fsing.groebner", "Ideal.colon", lambda a, r: a[1].total_degree()),
    ("frobroot.poly_root", "fsing.frobroot", "poly_root", lambda a, r: (len(a[0]), len(r.gens))),
    ("frobroot.ideal_root", "fsing.frobroot", "ideal_root", None),
    ("frobmod.minimalize", "fsing.frobmod", "FrobModule.minimalize",
     lambda a, r: (r.kernel_chain_length, r.fr_iterations)),
    ("frobmod.structural_kernel", "fsing.frobmod", "FrobModule.structural_kernel", None),
    ("frobmod.nilpotency_order", "fsing.frobmod", "FrobModule.nilpotency_order", None),
    ("testideals.test_ideal", "fsing.testideals", "test_ideal", None),
    ("testideals.je_chain", "fsing.testideals", "je_chain", None),
    ("testideals.nu", "fsing.testideals", "nu", None),
    ("oracle.bracket_membership", "fsing.oracle", "bracket_membership_oracle", lambda a, r: len(a[0])),
    ("cli.main", "fsing.cli", "main", None),
]

SETUP_JOB = -1

# Every per-layer metric, in report order, with its unit.
PER_LAYER: dict[str, str] = {
    "polyring.mul.calls": "count", "polyring.mul.self_s": "s", "polyring.mul.term_pairs": "count",
    "polyring.pow.calls": "count", "polyring.pow.self_s": "s", "polyring.pow.terms_out": "count",
    "polyring.parse.calls": "count", "polyring.parse.self_s": "s",
    "groebner.buchberger.calls": "count", "groebner.buchberger.self_s": "s",
    "groebner.buchberger.gens_in": "count", "groebner.buchberger.basis_out": "count",
    "groebner.buchberger.max_basis_deg": "degree",
    "groebner.division.calls": "count", "groebner.division.self_s": "s",
    "groebner.basis_cache_hit_ratio": "ratio", "groebner.monomial_input_share": "ratio",
    "groebner.intersection.calls": "count", "groebner.intersection.self_s": "s",
    "groebner.colon.calls": "count", "groebner.colon.self_s": "s", "groebner.colon.max_divisor_deg": "degree",
    "frobroot.poly_root.calls": "count", "frobroot.poly_root.self_s": "s",
    "frobroot.poly_root.terms_in": "count", "frobroot.poly_root.gens_out": "count",
    "frobroot.ideal_root.calls": "count", "frobroot.ideal_root.self_s": "s",
    "frobmod.minimalize.calls": "count", "frobmod.minimalize.self_s": "s",
    "frobmod.kernel_chain_levels": "count", "frobmod.fr_iterations": "count",
    "frobmod.structural_kernel.calls": "count", "frobmod.structural_kernel.self_s": "s",
    "frobmod.nilpotency_order.calls": "count", "frobmod.nilpotency_order.self_s": "s",
    "testideals.test_ideal.calls": "count", "testideals.test_ideal.self_s": "s",
    "testideals.je_chain.calls": "count", "testideals.je_chain.self_s": "s",
    "testideals.nu.calls": "count", "testideals.nu.self_s": "s", "testideals.nu.max_exponent": "count",
    "oracle.bracket_membership.calls": "count", "oracle.bracket_membership.self_s": "s",
    "oracle.bracket_membership.terms_scanned": "count",
    "cli.main.calls": "count", "cli.self_s": "s", "cli.records": "count",
    "cli.error_records": "count", "cli.json_bytes": "bytes",
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder; install around the code to be traced."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.extras: list[Any] = []
        self.job = SETUP_JOB
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, extra) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, extras, stack = self.parents, self.jobs, self.extras, self._stack
        clock = time.perf_counter

        # buchberger accepts any iterable; materialize it so it can be counted
        materialize = name == "groebner.buchberger"

        def traced(*args, **kwargs):
            if materialize:
                args = (tuple(args[0]),) + args[1:]
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            extras.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra is not None:
                extras[idx] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every lookup site of every target in the loaded fsing modules."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "fsing" or k.startswith("fsing.")]
        owners: list[Any] = list(modules)
        for mod in modules:
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__.startswith("fsing"):
                    owners.append(value)
        for name, module, path, extra in TARGETS:
            if module not in sys.modules:
                continue
            obj: Any = sys.modules[module]
            for part in path.split("."):
                obj = vars(obj)[part]
            wrapper = self._wrap(name, obj, extra)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is obj:
                        setattr(owner, attr, wrapper)
                        self._undo.append((owner, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def metrics(self, count_jobs: range, timed_passes: int) -> dict[str, float]:
        """Per-layer metrics of set-up plus one pass over the deck.

        Counts cover the set-up spans and the jobs in ``count_jobs`` (the
        first traced pass).  Self times cover set-up plus the mean of the
        ``timed_passes`` traced passes.  The CLI output counts and the
        ``trace.*`` entries are left to the caller.
        """
        self_t = self.self_times()
        out: dict[str, float] = {key: 0 for key in PER_LAYER}
        in_nu = [False] * len(self.names)
        has_buchberger = [False] * len(self.names)
        lookups = hits = monomial_inputs = 0
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            in_nu[i] = name == "testideals.nu" or (parent >= 0 and in_nu[parent])
            if name == "groebner.buchberger" and parent >= 0:
                has_buchberger[parent] = True
            busy = "cli.self_s" if name == "cli.main" else f"{name}.self_s"
            if busy in out:
                share = 1.0 if self.jobs[i] == SETUP_JOB else 1.0 / max(timed_passes, 1)
                out[busy] += self_t[i] * share
        for i, name in enumerate(self.names):
            if not (self.jobs[i] == SETUP_JOB or self.jobs[i] in count_jobs):
                continue
            if name == "groebner.ideal_groebner":
                lookups += 1
                hits += not has_buchberger[i]
                continue
            out[f"{name}.calls"] += 1
            x = self.extras[i]
            if x is None:
                continue
            if name == "polyring.mul":
                out["polyring.mul.term_pairs"] += x
            elif name == "polyring.pow":
                out["polyring.pow.terms_out"] += x[1]
                if in_nu[i]:
                    out["testideals.nu.max_exponent"] = max(out["testideals.nu.max_exponent"], x[0])
            elif name == "groebner.buchberger":
                out["groebner.buchberger.gens_in"] += x[0]
                out["groebner.buchberger.basis_out"] += x[1]
                out["groebner.buchberger.max_basis_deg"] = max(out["groebner.buchberger.max_basis_deg"], x[2])
                monomial_inputs += x[3]
            elif name == "groebner.colon":
                out["groebner.colon.max_divisor_deg"] = max(out["groebner.colon.max_divisor_deg"], x)
            elif name == "frobroot.poly_root":
                out["frobroot.poly_root.terms_in"] += x[0]
                out["frobroot.poly_root.gens_out"] += x[1]
            elif name == "frobmod.minimalize":
                out["frobmod.kernel_chain_levels"] += x[0]
                out["frobmod.fr_iterations"] += x[1]
            elif name == "oracle.bracket_membership":
                out["oracle.bracket_membership.terms_scanned"] += x
        out["groebner.basis_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        calls = out["groebner.buchberger.calls"]
        out["groebner.monomial_input_share"] = monomial_inputs / calls if calls else 0.0
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every recorded span as JSON: name, start, end, parent, job, extra."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [n, round(s - t0, 9), round(e - t0, 9), p, j, x if not isinstance(x, tuple) else list(x)]
            for n, s, e, p, j, x in zip(self.names, self.starts, self.ends, self.parents, self.jobs, self.extras)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent", "job", "extra"],
                       "spans": spans}, fh, separators=(",", ":"))
