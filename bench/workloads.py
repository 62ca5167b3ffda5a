"""The four workloads: decks of exact jobs built from the stored pools.

A deck is the whole pool of one workload, laid out by the run seed: the
seed picks one stored variant per slot, scales every variable by a
nonzero constant (x_i -> c_i x_i, an automorphism of F_p[x] that commutes
with bracket powers, roots, colons and intersections), renames the CLI's
variables, and shuffles the order.  Each stored reference answer is carried
through the same map, so every job of every seed has an exact expected
answer, and the work in a deck hardly depends on the seed.

Jobs call the library through the module objects handed to
:func:`build_deck`, so a tracer that rebinds module attributes sees them.
A job returns only canonical values (reduced bases, ``Fraction`` brackets,
reports with certificates, CLI output); the comparison with the reference
happens after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("groebner-systems", "fthreshold", "minmodel", "cli-batch")

# Variable names the CLI workload renames its inputs to; single letters, so
# renaming leaves every input and output the same length.
CLI_NAMES = ("x", "y", "z", "u", "v", "w", "a", "b", "c")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class Job:
    """One unit of closed-loop work with its expected canonical answer."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# -- exact transport of references -------------------------------------------------


def scale_terms(terms, c, p) -> list[tuple[tuple[int, ...], int]]:
    """Apply x_i -> c_i x_i to (exponents, coeff) pairs, keeping their order."""
    out = []
    for m, coeff in terms:
        for ci, e in zip(c, m):
            coeff = coeff * pow(ci, e, p) % p
        out.append((tuple(m), coeff))
    return out


def scaled_basis(stored, c, p) -> list[dict]:
    """A stored reduced basis under the scaling, each element made monic.

    The scaling fixes every monomial, so leading terms, the order of the
    basis and its reducedness carry over; only the coefficients change.
    """
    out = []
    for terms in stored:
        scaled = scale_terms(terms, c, p)
        inv = pow(scaled[0][1], p - 2, p)
        out.append({m: coeff * inv % p for m, coeff in scaled})
    return out


def same_basis(gens, expected: list[dict]) -> bool:
    return len(gens) == len(expected) and all(
        dict(g.terms()) == e for g, e in zip(gens, expected)
    )


def scaled_poly(ring, text: str, c) -> Any:
    """Parse ``text`` in ``ring`` and apply the variable scaling."""
    f = ring(text)
    return ring.poly(dict(scale_terms(f.terms(), c, ring.p)))


def draw_scaling(rng: random.Random, p: int, n: int) -> list[int]:
    return [rng.randrange(1, p) for _ in range(n)]


# -- groebner-systems ------------------------------------------------------------------


def _groebner_deck(fs, pool, rng) -> list[Job]:
    deck = []
    for slot in pool["slots"]:
        variant = rng.choice(slot["variants"])
        ring = fs.Ring(p=slot["p"], var_names=tuple(slot["vars"]), order=slot["order"])
        c = draw_scaling(rng, ring.p, ring.n)
        gens = tuple(scaled_poly(ring, t, c) for t in variant["gens"])
        expected = scaled_basis(variant["basis"], c, ring.p)

        def run(ring=ring, gens=gens):
            return fs.Ideal(ring, gens).groebner()

        deck.append(Job(slot["kind"], run, lambda ans, e=expected: same_basis(ans, e)))
    return deck


# -- fthreshold ------------------------------------------------------------------------


def _fthreshold_job(fs, slot, ring, f, c) -> Job:
    job, e, m = slot["job"], slot["e"], slot["m"]
    want = slot["expected"]
    if job == "fpt":
        Q = Fraction(ring.q) ** e
        nu = want["nu"]

        def run():
            return fs.fpt_bracket(f, e)

        def check(b):
            return (b.level, b.nu, b.lo, b.hi) == (e, nu, nu / Q, (nu + 1) / Q)

    elif job == "test_ideal":
        basis = scaled_basis(want["basis"], c, ring.p)

        def run():
            return fs.test_ideal(f, m, e).groebner()

        def check(gens):
            return same_basis(gens, basis)

    else:
        levels = [
            (scaled_basis(lv["direct"], c, ring.p), scaled_basis(lv["iterated"], c, ring.p), lv["equal"])
            for lv in want["levels"]
        ]

        def run():
            return [(lv.direct.groebner(), lv.iterated.groebner(), lv.equal) for lv in fs.je_chain(f, e)]

        def check(rows):
            return len(rows) == len(levels) and all(
                same_basis(d, ed) and same_basis(i, ei) and eq == eeq
                for (d, i, eq), (ed, ei, eeq) in zip(rows, levels)
            )

    return Job(f"{job}-p{ring.p}-e{e}", run, check)


def _fthreshold_deck(fs, pool, rng) -> list[Job]:
    deck = []
    for slot in pool["slots"]:
        ring = fs.Ring(p=slot["p"], var_names=tuple(slot["vars"]))
        c = draw_scaling(rng, ring.p, ring.n)
        deck.append(_fthreshold_job(fs, slot, ring, scaled_poly(ring, slot["f"], c), c))
    return deck


# -- minmodel ----------------------------------------------------------------------------


def _minmodel_deck(fs, pool, rng) -> list[Job]:
    deck = []
    for slot in pool["slots"]:
        ring = fs.Ring(p=slot["p"], var_names=tuple(slot["vars"]))
        c = draw_scaling(rng, ring.p, ring.n)
        K = tuple(scaled_poly(ring, t, c) for t in slot["K"])
        N = tuple(scaled_poly(ring, t, c) for t in slot["N"])
        f = scaled_poly(ring, slot["f"], c)
        # validated once here, in set-up; the timed job rebuilds the
        # presentation so that no cached basis survives between jobs
        fs.FrobModule.validate(fs.Ideal(ring, K), fs.Ideal(ring, N), f)
        want = slot["expected"]

        def module(ring=ring, K=K, N=N, f=f):
            return fs.FrobModule(fs.Ideal(ring, K), fs.Ideal(ring, N), f)

        if slot["job"] == "nilpotency":
            e_max, order = slot["e_max"], want["order"]
            deck.append(
                Job("nilpotency", lambda mod=module, e_max=e_max: mod().nilpotency_order(e_max),
                    lambda ans, order=order: ans == order)
            )
            continue
        relations = scaled_basis(want["relations"], c, ring.p)
        ambient = scaled_basis(want["ambient"], c, ring.p)

        def check(report, want=want, relations=relations, ambient=ambient):
            return (
                same_basis(report.result.relations.groebner(), relations)
                and same_basis(report.result.ambient.groebner(), ambient)
                and report.kernel_chain_length == want["kernel_chain_length"]
                and report.fr_iterations == want["fr_iterations"]
                and report.certificate.as_dict() == want["certificate"]
            )

        deck.append(Job("minimalize", lambda mod=module: mod().minimalize(), check))
    return deck


# -- cli-batch ---------------------------------------------------------------------------


def rename(value, mapping: dict[str, str]):
    """Rename variables in every string inside ``value``."""
    if isinstance(value, str):
        return _IDENT.sub(lambda mo: mapping.get(mo.group(0), mo.group(0)), value)
    if isinstance(value, list):
        return [rename(v, mapping) for v in value]
    if isinstance(value, dict):
        return {k: rename(v, mapping) for k, v in value.items()}
    return value


def _renamed_argv(argv: list[str], mapping: dict[str, str]) -> list[str]:
    out = list(argv)
    for i, arg in enumerate(argv):
        if arg in ("--vars", "--K", "--N"):
            out[i + 1] = rename(argv[i + 1], mapping)
    if out[-2] == "--json":
        out[-1] = rename(out[-1], mapping)
    return out


_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')


def cli_counts(answer) -> dict[str, int]:
    """Records, error records and bytes of one CLI job's JSON output.

    The bytes count every ``timing_ms`` value as one digit, so that it is a
    work count that repeats exactly.
    """
    _, text = answer
    lines = [line for line in text.splitlines() if line.strip()]
    return {
        "records": len(lines),
        "error_records": sum(1 for line in lines if "error" in json.loads(line)),
        "json_bytes": len(_TIMING.sub('"timing_ms": 0', text).encode("utf-8")),
    }


def _cli_check(answer, command, code, expected) -> bool:
    got_code, text = answer
    if got_code != code:
        return False
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if len(records) != len(expected):
        return False
    for rec, want in zip(records, expected):
        if rec.get("command") != command:
            return False
        if "error" in want:
            if rec.get("error", {}).get("type") != want["error"]:
                return False
        elif rec.get("result") != want["result"] or rec.get("certificate") != want["certificate"]:
            return False
    return True


def _cli_deck(fs, pool, rng, workdir: str) -> list[Job]:
    deck = []
    os.makedirs(workdir, exist_ok=True)
    for idx, inv in enumerate(pool["invocations"]):
        base = inv["argv"][inv["argv"].index("--vars") + 1].split(",")
        mapping = dict(zip(base, rng.sample(CLI_NAMES, len(base))))
        argv = _renamed_argv(inv["argv"], mapping)
        if inv["lines"] is not None:
            path = os.path.join(workdir, f"batch-{idx}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rename(inv["lines"], mapping)) + "\n")
            argv[argv.index("{file}")] = path
        expected = rename(inv["expected"], mapping)

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = fs.cli.main(argv)
            return code, out.getvalue()

        kind = argv[0] + ("-batch" if inv["lines"] is not None else "")
        deck.append(
            Job(kind, run,
                lambda ans, c=argv[0], code=inv["expected_code"], e=expected: _cli_check(ans, c, code, e))
        )
    return deck


# -- entry point ---------------------------------------------------------------------------


def load_pool(data_dir: str, name: str) -> dict:
    with open(os.path.join(data_dir, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def build_deck(name: str, fs, pool: dict, seed: int, workdir: str) -> list[Job]:
    """The shuffled deck of ``name`` for ``seed``; ``fs`` exposes the library.

    ``fs`` carries the package's public names plus ``cli`` (the
    :mod:`fsing.cli` module) for the CLI workload.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "groebner-systems":
        deck = _groebner_deck(fs, pool, rng)
    elif name == "fthreshold":
        deck = _fthreshold_deck(fs, pool, rng)
    elif name == "minmodel":
        deck = _minmodel_deck(fs, pool, rng)
    else:
        deck = _cli_deck(fs, pool, rng, workdir)
    rng.shuffle(deck)
    return deck
