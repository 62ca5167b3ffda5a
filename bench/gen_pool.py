"""Seeded generators for the benchmark pools, and their reference answers.

Each workload draws its jobs from a pool stored in ``bench/data/<name>.json``.
The pools come from fixed-seed generators in this file; the reference
answers beside them are computed once here, then confirmed independently
by ``bench/tests``.  A benchmark run never regenerates a pool: its
``--seed`` picks variants, scales variables and shuffles the pool (see
``workloads.py``), all of which carry the stored references over exactly.

Regenerate with ``python3 bench/gen_pool.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fsing import FrobModule, Ideal, Ring, ValidationError  # noqa: E402
from fsing import fpt_bracket, je_chain, test_ideal  # noqa: E402
from fsing.cli import main as cli_main  # noqa: E402

POOL_SEED = 20071017
DATA = os.path.join(HERE, "data")


# -- rendering -------------------------------------------------------------


def render(names, terms) -> str:
    """Polynomial text in the input grammar from (exponents, coeff) pairs."""
    parts = []
    for m, c in terms:
        factors = [str(c)] if c != 1 or not any(m) else []
        for name, e in zip(names, m):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def basis_terms(gens) -> list:
    """A reduced basis as stored: one term list per element, leading term first."""
    return [[[list(m), c] for m, c in g.terms()] for g in gens]


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    return [
        m
        for d in range(degree + 1)
        for m in itertools.product(range(d + 1), repeat=n)
        if sum(m) == d
    ]


def rand_terms(rng, n, p, max_terms, max_degree, min_degree=1):
    """A sparse random polynomial with no constant term, as term pairs."""
    mons = [m for m in monomials(n, max_degree) if sum(m) >= min_degree]
    chosen = rng.sample(mons, rng.randint(1, min(max_terms, len(mons))))
    return [(m, rng.randrange(1, p)) for m in sorted(chosen, reverse=True)]


# -- groebner-systems --------------------------------------------------------


def cyclic_text(n: int) -> tuple[list[str], list[str]]:
    names = [f"x{i}" for i in range(n)]
    gens = []
    for d in range(1, n):
        terms = ["*".join(names[(i + j) % n] for j in range(d)) for i in range(n)]
        gens.append(" + ".join(terms))
    gens.append("*".join(names) + " - 1")
    return names, gens


# (kind, n, p, order, degrees, copies).  Forty systems, the fewest for
# which p75 has ten jobs beyond it: the median job is a 3-variable dense
# system; the three cyclic-5 bases take about half of a pass.  A short pass
# gives each job more repetitions in a run.  Dense
# systems use a large prime so that every draw is generic: same basis
# shape, same work.
GROEBNER_SLOTS = [
    ("cyclic", 4, 32003, "grevlex", None, 1),
    ("cyclic", 4, 32003, "lex", None, 1),
    ("cyclic", 4, 7, "grevlex", None, 1),
    ("cyclic", 4, 7, "lex", None, 1),
    ("cyclic", 4, 5, "grevlex", None, 1),
    ("cyclic", 4, 5, "lex", None, 1),
    ("cyclic", 4, 3, "grevlex", None, 1),
    ("cyclic", 4, 3, "lex", None, 1),
    ("dense", 3, 32003, "grevlex", (2, 2, 2), 7),
    ("dense", 3, 32003, "grevlex", (2, 2, 3), 8),
    ("dense", 3, 32003, "lex", (2, 2, 2), 6),
    ("dense", 3, 32003, "grevlex", (3, 3, 3), 4),
    ("dense", 4, 32003, "grevlex", (2, 2, 2, 2), 4),
    ("cyclic", 5, 32003, "grevlex", None, 1),
    ("cyclic", 5, 11, "grevlex", None, 1),
    ("cyclic", 5, 13, "grevlex", None, 1),
]
DENSE_VARIANTS = 3


def gen_groebner(rng) -> dict:
    slots = []
    for kind, n, p, order, degrees, copies in GROEBNER_SLOTS:
        for _ in range(copies):
            if kind == "cyclic":
                names, gens = cyclic_text(n)
                texts = [gens]
            else:
                names = list("xyzw"[:n])
                texts = []
                for _ in range(DENSE_VARIANTS):
                    polys = []
                    for d in degrees:
                        terms = [(m, rng.randrange(1, p)) for m in monomials(n, d)]
                        polys.append(render(names, sorted(terms, key=lambda t: (sum(t[0]), t[0]), reverse=True)))
                    texts.append(polys)
            ring = Ring(p=p, var_names=tuple(names), order=order)
            variants = []
            for gens in texts:
                basis = Ideal(ring, [ring(t) for t in gens]).groebner()
                variants.append({"gens": gens, "basis": basis_terms(basis)})
            slots.append(
                {"kind": f"{kind}-{n}", "p": p, "vars": names, "order": order, "variants": variants}
            )
    return {"workload": "groebner-systems", "pool_seed": POOL_SEED, "slots": slots}


# -- fthreshold -----------------------------------------------------------------

CUBIC = "x^3 + y^3 + z^3 + x*y*z"
QUADRIC = "x^2 + y^2 + z^2"
TRINOMIAL = "x^2*y + y^3*z + z^4"
MIXED = "x^5 + y^4 + x*y*z^2"

# (job, f, p, e, m): m is the test-ideal numerator.  Three exponential jobs
# on the cubic take about half of a pass, thirty mid-sized jobs hold the
# median, fifteen are short.
FTHRESHOLD_SLOTS = [
    ("fpt", CUBIC, 2, 8, None),
    ("je_chain", CUBIC, 2, 6, None),
    ("fpt", CUBIC, 3, 5, None),
    ("je_chain", CUBIC, 2, 5, None),
    ("fpt", CUBIC, 5, 3, None),
    ("test_ideal", CUBIC, 5, 3, 83),
    ("fpt", TRINOMIAL, 3, 6, None),
    ("fpt", MIXED, 3, 6, None),
    ("je_chain", TRINOMIAL, 2, 5, None),
    ("je_chain", MIXED, 2, 5, None),
    ("je_chain", CUBIC, 3, 5, None),
    ("fpt", QUADRIC, 3, 5, None),
    ("fpt", QUADRIC, 5, 3, None),
    ("test_ideal", MIXED, 5, 3, 83),
    ("je_chain", CUBIC, 2, 4, None),
    ("fpt", CUBIC, 2, 6, None),
    ("fpt", CUBIC, 3, 4, None),
    ("fpt", TRINOMIAL, 3, 5, None),
    ("fpt", MIXED, 3, 5, None),
    ("je_chain", MIXED, 2, 4, None),
    ("fpt", TRINOMIAL, 5, 3, None),
    ("fpt", MIXED, 5, 3, None),
    ("je_chain", TRINOMIAL, 2, 4, None),
    ("test_ideal", TRINOMIAL, 5, 3, 83),
    ("test_ideal", QUADRIC, 5, 3, 83),
    ("je_chain", MIXED, 3, 5, None),
    ("je_chain", TRINOMIAL, 3, 5, None),
    ("je_chain", QUADRIC, 3, 5, None),
    ("je_chain", CUBIC, 3, 4, None),
    ("fpt", CUBIC, 2, 7, None),
    ("je_chain", QUADRIC, 2, 5, None),
    ("je_chain", CUBIC, 5, 3, None),
    ("je_chain", MIXED, 3, 4, None),
    ("fpt", "x^2 + y^3", 2, 6, None),
    ("fpt", "x*y*(x + y)", 3, 6, None),
    ("fpt", "x^2 + y^3", 3, 5, None),
    ("fpt", "x^2 + y^3", 5, 3, None),
    ("test_ideal", CUBIC, 2, 4, 10),
    ("test_ideal", CUBIC, 3, 3, 18),
    ("test_ideal", MIXED, 2, 4, 10),
    ("je_chain", "x^2 + y^3", 2, 4, None),
    ("je_chain", "x*y*(x + y)", 3, 4, None),
    ("fpt", QUADRIC, 2, 6, None),
    ("test_ideal", QUADRIC, 3, 4, 54),
    ("test_ideal", "x^2 + y^3", 5, 2, 16),
    ("je_chain", "x*y*(x + y)", 2, 3, None),
    ("fpt", "x*y*(x + y)", 2, 5, None),
    ("test_ideal", TRINOMIAL, 2, 3, 5),
]


def fthreshold_answer(job, f, e, m) -> dict:
    if job == "fpt":
        return {"nu": fpt_bracket(f, e).nu}
    if job == "test_ideal":
        return {"basis": basis_terms(test_ideal(f, m, e).groebner())}
    return {
        "levels": [
            {
                "direct": basis_terms(lv.direct.groebner()),
                "iterated": basis_terms(lv.iterated.groebner()),
                "equal": lv.equal,
            }
            for lv in je_chain(f, e)
        ]
    }


def gen_fthreshold(rng) -> dict:
    slots = []
    for job, text, p, e, m in FTHRESHOLD_SLOTS:
        names = ["x", "y", "z"] if "z" in text else ["x", "y"]
        ring = Ring(p=p, var_names=tuple(names))
        f = ring(text)
        slots.append(
            {"job": job, "p": p, "vars": names, "f": text, "e": e, "m": m,
             "expected": fthreshold_answer(job, f, e, m)}
        )
    return {"workload": "fthreshold", "pool_seed": POOL_SEED, "slots": slots}


# -- minmodel ---------------------------------------------------------------------

# ROADMAP's module at p = 5 and two larger ambient modules form the tail.
MINMODEL_FIXED = [
    (5, ["x", "y", "z"], ["x^2 + y*z"], ["1"], "(x^2 + y*z)^4*(x + z)"),
    (5, ["x", "y"], ["4*x*y + 4*x"], ["4*x*y + 4*x", "y"],
     "3*x^5*y^8 + 2*x^4*y^9 + 2*x^5*y^7 + 3*x^4*y^8 + 3*x^5*y^6 + 2*x^4*y^7"
     " + 2*x^5*y^5 + 3*x^4*y^6 + 3*x^5*y^4 + 2*x^4*y^5"),
    (5, ["x", "y", "z"], ["3*x*y + 4*y"], ["3*x*y + 4*y", "x"],
     "3*x^8*y^5 + x^8*y^4*z + x^7*y^5 + 2*x^7*y^4*z + 2*x^6*y^5 + 4*x^6*y^4*z"
     " + 4*x^5*y^5 + 3*x^5*y^4*z + 3*x^4*y^5 + x^4*y^4*z"),
]
# (family, p, n, count, size).  "unit" is K=(g), N=(1), f=g^(p-1)*h;
# "ambient" adds a variable v to N with f=(g*v)^(p-1)*h; "principal" is
# K=(0), N=(1); "nilpotent" is K=(g), N=(1), f=g^p*h.  Eight small modules
# and the nilpotency jobs stay below the median, which falls among the
# twenty-six medium ones.
MINMODEL_FAMILIES = [
    ("unit", 2, 2, 2, "small"), ("unit", 3, 2, 1, "small"),
    ("ambient", 2, 3, 2, "small"), ("ambient", 3, 2, 1, "small"),
    ("principal", 2, 2, 1, "small"), ("nilpotent", 2, 2, 1, "small"),
    ("unit", 2, 2, 4, "medium"), ("unit", 2, 3, 4, "medium"), ("unit", 3, 2, 4, "medium"),
    ("ambient", 2, 2, 4, "medium"), ("ambient", 2, 3, 4, "medium"), ("ambient", 3, 3, 2, "medium"),
    ("principal", 3, 2, 2, "medium"), ("nilpotent", 3, 2, 2, "medium"),
]
# (terms of g, degree of g, degree of h, most terms of f, highest degree of f)
MODULE_SIZES = {"small": (2, 2, 1, 8, 8), "medium": (3, 3, 2, 6, 8)}
NILPOTENCY_EVERY = 6
NILPOTENCY_BUDGET = 2


def draw_module(rng, family, p, n, size):
    """One module of the family as texts; validated by the caller."""
    g_terms, g_deg, h_deg, _, _ = MODULE_SIZES[size]
    names = ["x", "y", "z"][:n]
    g = rand_terms(rng, n, p, g_terms, g_deg)
    h = rand_terms(rng, n, p, 2, h_deg) if rng.random() < 0.7 else [((0,) * n, 1)]
    gt, ht = render(names, g), render(names, h)
    if family == "unit":
        return names, [gt], ["1"], f"({gt})^{p - 1}*({ht})"
    if family == "ambient":
        v = names[rng.randrange(n)]
        return names, [gt], [gt, v], f"(({gt})*{v})^{p - 1}*({ht})"
    if family == "nilpotent":
        return names, [gt], ["1"], f"({gt})^{p}*({ht})"
    f = rand_terms(rng, n, p, g_terms, g_deg + 1, min_degree=2)
    return names, [], ["1"], render(names, f)


def module_answer(module, job) -> dict:
    if job == "nilpotency":
        return {"order": module.nilpotency_order(NILPOTENCY_BUDGET)}
    report = module.minimalize()
    return {
        "relations": basis_terms(report.result.relations.groebner()),
        "ambient": basis_terms(report.result.ambient.groebner()),
        "kernel_chain_length": report.kernel_chain_length,
        "fr_iterations": report.fr_iterations,
        "certificate": report.certificate.as_dict(),
    }


def gen_minmodel(rng) -> dict:
    drawn = list(MINMODEL_FIXED)
    for family, p, n, count, size in MINMODEL_FAMILIES:
        max_len, max_deg = MODULE_SIZES[size][3:]
        kept = 0
        while kept < count:
            names, K, N, f = draw_module(rng, family, p, n, size)
            ring = Ring(p=p, var_names=tuple(names))
            fp = ring(f)
            # keep multipliers small: iterated kernels raise f to
            # 1 + q + q^2 + ..., whose cost grows steeply with f
            if fp.total_degree() > max_deg or len(fp) > max_len:
                continue
            try:
                FrobModule.validate(Ideal(ring, [ring(t) for t in K]), Ideal(ring, [ring(t) for t in N]), fp)
            except ValidationError:
                continue
            drawn.append((p, names, K, N, f))
            kept += 1
    slots = []
    for idx, (p, names, K, N, f) in enumerate(drawn):
        ring = Ring(p=p, var_names=tuple(names))
        module = FrobModule.validate(
            Ideal(ring, [ring(t) for t in K]), Ideal(ring, [ring(t) for t in N]), ring(f)
        )
        jobs = ["minimalize"]
        # the fixed tail modules' iterated powers would dominate the deck
        if idx >= len(MINMODEL_FIXED) and (idx - len(MINMODEL_FIXED)) % NILPOTENCY_EVERY == 0:
            jobs.append("nilpotency")
        for job in jobs:
            slots.append(
                {"job": job, "p": p, "vars": names, "K": K, "N": N, "f": f,
                 "e_max": NILPOTENCY_BUDGET if job == "nilpotency" else None,
                 "expected": module_answer(module, job)}
            )
    return {"workload": "minmodel", "pool_seed": POOL_SEED, "slots": slots}


# -- cli-batch ---------------------------------------------------------------------

# Each entry: (subcommand, p, vars, options); every group gets three
# single --json invocations and two 6-line --file batches.  gen_cli adds
# invocations that fail whole: an exhausted S-pair budget, a zero
# nilpotency budget and an invalid module.
CLI_GROUPS = [
    ("root", 2, "x,y", ["--level", "1"]),
    ("root", 3, "x,y,z", ["--level", "2"]),
    ("bracket", 3, "x,y", ["--level", "1"]),
    ("testideal", 2, "x,y", ["--m", "3", "--e", "2"]),
    ("fpt", 2, "x,y", ["--max-e", "4"]),
    ("fpt", 3, "x,y", ["--max-e", "3"]),
    ("je-chain", 2, "x,y", ["--max-e", "3"]),
    ("minimalize", 2, "x,y", []),
    ("minimalize", 3, "x,y", ["--K", "x", "--N", "x;y"]),
    ("nilpotency", 2, "x", ["--K", "x", "--max-e", "3"]),
    ("verify", 2, "x,y", ["--level", "2"]),
    ("verify", 3, "x,y", ["--level", "1"]),
]
SINGLES_PER_GROUP = 3
BATCHES_PER_GROUP = 2
BATCH_LINES = 6


def cli_input(rng, command, p, names, options):
    n = len(names)
    if command == "bracket":
        return "; ".join(render(names, rand_terms(rng, n, p, 2, 3)) for _ in range(2))
    if command in ("root", "verify"):
        return render(names, rand_terms(rng, n, p, 3, 9 if command == "root" else 6))
    if "--K" in options and command == "minimalize":
        # f*x in (x^p) and f*y in (x^p, y^p) keep K=(x) <= N=(x, y) valid
        h = render(names, rand_terms(rng, n, p, 2, 1))
        return f"(x*y)^{p - 1}*({h})"
    return render(names, rand_terms(rng, n, p, 3, 4))


# Lines that must fail inside a batch: fpt with f(0) != 0, a parse error.
CLI_ERROR_LINES = {"fpt": "x^2 + y^3 + 1", "root": "x^^2"}


def run_cli(argv, lines):
    out, err = io.StringIO(), io.StringIO()
    path = None
    if lines is not None:
        path = os.path.join(DATA, ".gen_batch.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        argv = [a if a != "{file}" else path for a in argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        if path is not None:
            os.remove(path)
    records = [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]
    return code, [
        {"error": r["error"]["type"]} if "error" in r
        else {"result": r["result"], "certificate": r.get("certificate")}
        for r in records
    ]


def gen_cli(rng) -> dict:
    invocations = []
    for command, p, vars_text, options in CLI_GROUPS:
        names = vars_text.split(",")
        base = [command, "--p", str(p), "--vars", vars_text] + options
        for _ in range(SINGLES_PER_GROUP):
            text = cli_input(rng, command, p, names, options)
            invocations.append({"argv": base + ["--json", text], "lines": None})
        for b in range(BATCHES_PER_GROUP):
            lines = [cli_input(rng, command, p, names, options) for _ in range(BATCH_LINES)]
            if b == 0 and command in CLI_ERROR_LINES:
                lines[rng.randrange(len(lines))] = CLI_ERROR_LINES[command]
            invocations.append({"argv": base + ["--file", "{file}"], "lines": lines})
    # typed failures of whole invocations
    invocations.append({"argv": ["bracket", "--p", "3", "--vars", "x,y,z", "--budget-spairs", "2", "--level", "0",
                                 "--json", "x*y + z^2; y*z + x^2; x*z + y^2 + 1"], "lines": None})
    invocations.append({"argv": ["bracket", "--p", "3", "--vars", "x,y,z", "--budget-spairs", "3", "--level", "0",
                                 "--file", "{file}"],
                        "lines": ["x*y + z^2; y*z + x^2; x*z + y^2 + 1", "x + y", "x*y*z - 1; x^2 + y^2 + z^2; x + y + z"]})
    invocations.append({"argv": ["nilpotency", "--p", "2", "--vars", "x", "--K", "x", "--max-e", "0", "--json", "x^2"],
                        "lines": None})
    invocations.append({"argv": ["minimalize", "--p", "2", "--vars", "x,y", "--K", "x", "--N", "y", "--json", "x*y"],
                        "lines": None})
    for inv in invocations:
        code, records = run_cli(inv["argv"], inv["lines"])
        inv["expected_code"] = code
        inv["expected"] = records
    return {"workload": "cli-batch", "pool_seed": POOL_SEED, "invocations": invocations}


GENERATORS = {
    "groebner-systems": gen_groebner,
    "fthreshold": gen_fthreshold,
    "minmodel": gen_minmodel,
    "cli-batch": gen_cli,
}


def main(argv: list[str]) -> int:
    names = argv or list(GENERATORS)
    for name in names:
        pool = GENERATORS[name](random.Random(f"{POOL_SEED}:{name}"))
        path = os.path.join(DATA, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pool, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
