"""fsing benchmark: one workload, one seed, one closed loop with one client.

Usage (from the repository root)::

    python3 bench/run.py --workload fthreshold --seed 1 --seconds 32 --trace 0

``--workload all`` runs the four workloads one after another, each in a
fresh interpreter, and ends with one JSON object that combines them.

The run sets up ``SETUP_REPEATS`` times (import of the library from
``src/``, rings, input parsing and scaling, module validation, reference
loading): once before the loop, whose deck the jobs use, and then between
passes, discarding the result.  The loop runs whole passes over the
workload's deck, one job after another, for ``--seconds`` (and at least
``MIN_PASSES`` passes), and checks each answer against its reference
between jobs, outside the timed region.

Times are adjusted for the host's speed: a calibration slice (see
``calibrate.py``) runs before every job and before every set-up, and each
time is scaled by the slice's nominal time over its measured time nearby.
A job's time is the median of its adjusted repetitions; the end-to-end
metrics are medians over the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
half the time untraced and half with spans around every layer call, writes
the spans to ``bench/out/`` and prints the per-layer metrics, including
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed SETUP_REPEATS times, spread between the passes of the
# loop so that the samples see the host at different moments; the jobs use
# the first set-up's deck.  Each set-up is adjusted by the mean of the
# SETUP_SLICES calibration slices run just before it.
SETUP_REPEATS = 15
SETUP_SLICES = 16
MIN_PASSES = 3
# Percentiles considered for the tail, highest first; the tail is the
# highest one with at least TAIL_BEYOND jobs above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def import_library(cli: bool):
    """Import fsing afresh from ``src/`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "fsing" or n.startswith("fsing.")]:
        del sys.modules[name]
    fs = importlib.import_module("fsing")
    if os.path.dirname(os.path.abspath(fs.__file__)) != os.path.join(SRC, "fsing"):
        raise ImportError(f"fsing was imported from {fs.__file__}, not from {SRC}")
    if cli:
        importlib.import_module("fsing.cli")
    return fs


def setup(workload: str, seed: int, workdir: str, tracer=None) -> list:
    """Import fsing, load the pool and build the deck."""
    fs = import_library(cli=workload == "cli-batch")
    if tracer is not None:
        tracer.install()
    try:
        pool = workloads.load_pool(os.path.join(HERE, "data"), workload)
        deck = workloads.build_deck(workload, fs, pool, seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return deck


@dataclass
class Loop:
    """Outcome of the timed loop: every job's times and the answer checks."""

    times: list[list[float]]  # raw seconds per deck job, one per pass
    speeds: list[float] = field(default_factory=list)  # host slowness per pass
    correct: int = 0
    wrong: list[str] = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return self.passes * len(self.times)

    @property
    def busy(self) -> float:
        return sum(sum(ts) for ts in self.times)

    def adjusted(self) -> list[list[float]]:
        """Job times scaled to nominal host speed, pass by pass."""
        return [[t / s for t, s in zip(ts, self.speeds)] for ts in self.times]

    def job_times(self) -> list[float]:
        """Each deck job's median adjusted time, in seconds."""
        return [statistics.median(ts) for ts in self.adjusted()]

    def rate(self) -> float:
        """Correct jobs per second: deck jobs over the median adjusted pass
        time, times the share answered correctly."""
        pass_s = statistics.median(map(sum, zip(*self.adjusted())))
        return self.correct / self.attempted * len(self.times) / pass_s


def judge(job, ans) -> bool:
    if isinstance(ans, Exception):
        return False
    try:
        return bool(job.check(ans))
    except Exception:  # a malformed answer is a wrong answer
        return False


def run_passes(deck, seconds: float, tracer=None, first_pass: list | None = None,
               after_pass: Callable[[], None] | None = None) -> Loop:
    """Whole passes over ``deck`` until ``seconds`` have passed, and at
    least MIN_PASSES passes.

    Only the jobs are timed.  A calibration slice runs before each job; the
    pass's slices give its host slowness.  Each answer is checked between
    jobs, outside the timed region, and then dropped, so neither the checks
    nor a growing pile of answers weighs on the jobs that follow.
    ``after_pass`` runs between passes, outside the timed region.
    """
    loop = Loop(times=[[] for _ in deck])
    gc.collect()
    end = time.perf_counter() + seconds
    while True:
        slices = []
        for i, job in enumerate(deck):
            if tracer is not None:
                tracer.job = loop.passes * len(deck) + i
            slices.append(calibrate.slice_seconds())
            t0 = time.perf_counter()
            try:
                ans = job.run()
            except Exception as err:  # a failed job is counted, not fatal
                ans = err
            loop.times[i].append(time.perf_counter() - t0)
            if judge(job, ans):
                loop.correct += 1
            else:
                loop.wrong.append(job.kind)
            if first_pass is not None and loop.passes == 0:
                first_pass.append(ans)
        loop.speeds.append(calibrate.speed(slices))
        loop.passes += 1
        if time.perf_counter() >= end and loop.passes >= MIN_PASSES:
            return loop
        if after_pass is not None:
            after_pass()


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """(percentile, value, jobs beyond): the highest ladder percentile with
    at least TAIL_BEYOND jobs beyond it, by nearest rank."""
    ordered = sorted(times_ms)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND or pct == TAIL_LADDER[-1]:
            break
    return pct, ordered[rank - 1], n - rank


def commit_id() -> str:
    """The checked-out commit when ``.git`` is present, else "unknown"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fsing")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def meta(args, deck) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "deck_jobs": len(deck),
        "loop": "closed, 1 client",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fsing", "__init__.py")):
        print(f"bench: no fsing sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in turn, each in its own interpreter."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print(f"## {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return code


def run(args, workdir: str) -> int:
    if args.trace:
        tracer = tracing.Tracer()
        deck = setup(args.workload, args.seed, workdir, tracer)
        plain = run_passes(deck, args.seconds / 2.0)
        first_pass: list = []
        tracer.install()
        try:
            traced = run_passes(deck, args.seconds / 2.0, tracer, first_pass)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
    else:
        setup_times: list[float] = []

        setup_raw: list[float] = []

        def timed_setup() -> list:
            slowness = calibrate.speed([calibrate.slice_seconds() for _ in range(SETUP_SLICES)])
            t0 = time.perf_counter()
            built = setup(args.workload, args.seed, workdir)
            setup_raw.append(time.perf_counter() - t0)
            setup_times.append(setup_raw[-1] / slowness)
            gc.collect()  # free the discarded imports before the next pass
            return built

        def more_setups() -> None:
            if len(setup_times) < SETUP_REPEATS:
                timed_setup()

        deck = timed_setup()
        loops = [run_passes(deck, args.seconds, after_pass=more_setups)]
        while len(setup_times) < SETUP_REPEATS:
            timed_setup()
    attempted = sum(loop.attempted for loop in loops)
    wrong = [kind for loop in loops for kind in loop.wrong]
    info = meta(args, deck)
    print("# " + json.dumps(info))

    if args.trace:
        metrics = tracer.metrics(range(len(deck)), traced.passes)
        metrics["trace.overhead_ratio"] = plain.rate() / traced.rate() if traced.correct else 0.0
        metrics["trace.spans"] = len(tracer.names)
        if args.workload == "cli-batch":
            for ans in first_pass:
                if not isinstance(ans, Exception):
                    for key, value in workloads.cli_counts(ans).items():
                        metrics[f"cli.{key}"] += value
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, dict(info, untraced_jobs_per_s=plain.rate(), traced_jobs_per_s=traced.rate()))
        print(f"# {len(tracer.names)} spans written to {os.path.relpath(path, ROOT)}")
        print(f"# tracing overhead: {plain.rate():.4f} jobs/s untraced ({plain.attempted} jobs) vs "
              f"{traced.rate():.4f} jobs/s traced ({traced.attempted} jobs)")
        for name, unit in tracing.PER_LAYER.items():
            print(f"{name:<42} {metrics[name]:16.6f} {unit}")
        result = {k: {"value": metrics[k], "unit": unit} for k, unit in tracing.PER_LAYER.items()}
    else:
        loop = loops[0]
        job_ms = [t * 1000.0 for t in loop.job_times()]
        pct, tail_ms, beyond = tail(job_ms)
        values = {
            "jobs_per_s": (loop.rate(), "1/s"),
            "job_p50_ms": (statistics.median(job_ms), "ms"),
            "job_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"# {attempted} jobs: {loop.passes} passes of {len(deck)}, {loop.busy:.3f} s of raw job time, "
              f"{loop.correct / loop.busy:.4f} raw jobs/s over all repetitions")
        print(f"# host slowness per pass (1 = nominal): {', '.join(f'{s:.3f}' for s in loop.speeds)}")
        print(f"# raw setups: {', '.join(f'{s:.4f}' for s in setup_raw)} s")
        for name, (value, unit) in values.items():
            note = f"  (p{pct:g} of {len(deck)} jobs, {beyond} beyond)" if name == "job_tail_ms" else ""
            print(f"{name:<14} {value:14.6f} {unit}{note}")
        print(f"{'failed_ratio':<14} {len(wrong) / attempted:14.6f} ratio  ({len(wrong)} of {attempted} jobs)")
        result = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    if wrong:
        print(f"# WRONG ANSWERS: {len(wrong)} of {attempted} jobs ({', '.join(sorted(set(wrong)))})")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(wrong), "metrics": result}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
