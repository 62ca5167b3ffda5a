"""Command line interface.

Exit codes: 0 success, 1 domain or validation problems, 2 exhausted
resource budgets, 3 unparseable input or usage errors.  With ``--json``
every result is a single JSON object with the fixed top-level fields
``command``, ``ring``, ``input``, ``result``, optional ``certificate`` and
``timing_ms``; a failure is one object with ``command``, ``ring``,
``input`` and ``error``, also when the ring itself cannot be built (its
``ring`` then echoes the flags).  ``--file`` processes one input per line
and emits one JSON object per line (JSON mode is implied).  Ideal-valued
arguments take semicolon-separated generators in one shell argument.

Each subcommand is declared once, in ``_COMMANDS``: its help, its own
options and a handler that returns the JSON payload next to the human
lines.  Every subcommand takes the ring flags, ``--json``, ``--file`` and
``--budget-spairs``; ``--budget-iters`` belongs to ``minimalize`` alone.

The parser is built once per process, on the first call, so a program that
calls :func:`main` repeatedly pays for it once.  Parsing only reads it:
each call fills a fresh namespace, and every default is an immutable
str, int, bool or None.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from itertools import islice
from typing import Any, Callable, NamedTuple, Sequence

from .errors import DomainError, FSingError, ParseError, ResourceError
from .frobmod import FrobModule, walk
from .frobroot import ideal_root
from .groebner import MAX_SPAIRS, Ideal
from .oracle import (
    bracket_membership_oracle,
    monomial_root_oracle,
    smallest_ideal_bruteforce,
)
from .polyring import Ring
from .testideals import fpt_bracket, je_chain, test_ideal

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_PARSE = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


class _Outcome(NamedTuple):
    input: dict[str, Any]
    result: dict[str, Any]
    lines: list[str]  # the human rendering, before any certificate lines
    certificate: dict[str, Any] | None = None
    failed: bool = False  # exit 1 although a result was produced


def _parse_ideal(ring: Ring, text: str) -> Ideal:
    parts = [part.strip() for part in text.split(";")]
    gens = [ring(part) for part in parts if part]
    return Ideal(ring, gens)


def _gen_strings(ideal: Ideal) -> list[str]:
    return [str(g) for g in ideal.groebner()]


def _listing(gens: list[str]) -> str:
    return "(" + (", ".join(gens) or "0") + ")"


def _ideal_input(ideal: Ideal, level: int) -> dict[str, Any]:
    return {"ideal": [str(g) for g in ideal.gens], "level": level}


def _generators(inp: dict[str, Any], ideal: Ideal) -> _Outcome:
    gens = _gen_strings(ideal)
    return _Outcome(inp, {"generators": gens}, [f"generators: {_listing(gens)}"])


def _cmd_root(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    ideal = _parse_ideal(ring, text)
    return _generators(_ideal_input(ideal, args.level), ideal_root(ideal, args.level))


def _cmd_bracket(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    ideal = _parse_ideal(ring, text)
    power = ideal.bracket_power(args.level)
    return _generators(_ideal_input(ideal, args.level), power)


def _cmd_testideal(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    f = ring(text)
    ideal = test_ideal(f, args.m, args.e)
    return _generators({"poly": str(f), "m": args.m, "e": args.e}, ideal)


def _cmd_fpt(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    f = ring(text)
    # nu and the bracket denominators reach q^e, which must convert to text
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.max_e * math.log10(ring.q) >= limit:
        raise ResourceError(
            f"level {args.max_e} gives numbers of more than {limit} digits"
        )
    bracket = fpt_bracket(f, args.max_e)
    result = {
        "level": bracket.level,
        "nu": bracket.nu,
        "lo": str(bracket.lo),
        "hi": str(bracket.hi),
        "interval": str(bracket),
    }
    lines = [f"level: {bracket.level}", f"nu: {bracket.nu}", f"bracket: {bracket}"]
    return _Outcome({"poly": str(f), "max_e": args.max_e}, result, lines)


def _cmd_je_chain(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    f = ring(text)
    levels = je_chain(f, args.max_e)
    rows = [
        {
            "level": lv.level,
            "direct": _gen_strings(lv.direct),
            "iterated": _gen_strings(lv.iterated),
            "equal": lv.equal,
        }
        for lv in levels
    ]
    all_equal = all(lv.equal for lv in levels)
    lines = [
        f"e={row['level']}: direct={_listing(row['direct'])} "
        f"iterated={_listing(row['iterated'])} [{'ok' if row['equal'] else 'MISMATCH'}]"
        for row in rows
    ]
    lines.append(f"all levels equal: {all_equal}")
    result = {"levels": rows, "all_equal": all_equal}
    return _Outcome({"poly": str(f), "max_e": args.max_e}, result, lines)


def _module_from_args(
    ring: Ring, args: argparse.Namespace, text: str
) -> tuple[FrobModule, dict[str, Any]]:
    relations = _parse_ideal(ring, args.K)
    ambient = _parse_ideal(ring, args.N)
    module = FrobModule.validate(relations, ambient, ring(text))
    inp = {
        "multiplier": str(module.multiplier),
        "relations": [str(g) for g in module.relations.gens],
        "ambient": [str(g) for g in module.ambient.gens],
    }
    return module, inp


def _cmd_minimalize(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    module, inp = _module_from_args(ring, args, text)
    report = module.minimalize(iteration_budget=args.budget_iters)
    result = {
        "relations": _gen_strings(report.result.relations),
        "ambient": _gen_strings(report.result.ambient),
        "kernel_chain_length": report.kernel_chain_length,
        "fr_iterations": report.fr_iterations,
    }
    lines = [
        f"relations: {_listing(result['relations'])}",
        f"ambient: {_listing(result['ambient'])}",
        f"kernel chain length: {report.kernel_chain_length}",
        f"fr iterations: {report.fr_iterations}",
    ]
    return _Outcome(inp, result, lines, report.certificate.as_dict())


def _cmd_nilpotency(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    module, inp = _module_from_args(ring, args, text)
    order = module.nilpotency_order(args.max_e)
    result = {"order": order, "within_budget": order is not None, "budget": args.max_e}
    if order is None:
        line = f"not nilpotent within budget {args.max_e}"
    else:
        line = f"nilpotent of order {order}"
    return _Outcome({**inp, "max_e": args.max_e}, result, [line])


def _cmd_verify(ring: Ring, args: argparse.Namespace, text: str) -> _Outcome:
    ideal = _parse_ideal(ring, text)
    level = args.level
    checks: list[dict[str, str]] = []

    def record(name: str, ok: bool | None) -> None:
        status = "skipped" if ok is None else "passed" if ok else "failed"
        checks.append({"name": name, "status": status})

    root = ideal_root(ideal, level)
    # refuses a level whose q^e passes the degree guard before any check
    # below runs a root per level or forms q^e
    max_ideal_bracket = Ideal(ring, ring.gens).bracket_power(level)

    # the root must be big enough: I <= root^[q^e]
    bracket = root.bracket_power(level)
    record("root-bracket-containment", all(bracket.contains(g) for g in ideal.gens))

    if level >= 2:
        # the walk starts at the first root, so the input ideal is never
        # compared with it
        roots = walk(functools.partial(ideal_root, e=1), ideal_root(ideal, 1))
        *_, iterated = islice(roots, level)
        record("iterated-root-agreement", iterated == root)
    else:
        record("iterated-root-agreement", None)

    if ideal.gens and all(g.is_monomial() for g in ideal.gens):
        floors = [
            monomial_root_oracle(g.leading_monomial(), ring.q, level) for g in ideal.gens
        ]
        expected = Ideal(ring, tuple(map(ring.monomial, floors)))
        record("monomial-floor-oracle", expected == root)
    else:
        record("monomial-floor-oracle", None)

    agree = all(
        bracket_membership_oracle(g, level) == max_ideal_bracket.contains(g)
        for g in ideal.gens
    )
    record("bracket-membership-oracle", agree)

    root_gb = root.groebner()
    found = None
    if (
        len(ideal.gens) == 1
        and ring.n <= 2
        and root_gb
        and all(g.is_monomial() for g in root_gb)
        and max(max(g.leading_monomial()) for g in root_gb) <= 6
    ):
        cap = max(max(g.leading_monomial()) for g in root_gb) + 1
        try:
            found = smallest_ideal_bruteforce(ideal.gens[0], level, cap) == root
        except ResourceError:
            pass
    record("smallest-ideal-search", found)

    all_passed = all(c["status"] != "failed" for c in checks)
    lines = [f"{c['name']}: {c['status']}" for c in checks]
    lines.append(f"all passed: {all_passed}")
    result = {"checks": checks, "all_passed": all_passed}
    return _Outcome(_ideal_input(ideal, level), result, lines, failed=not all_passed)


class _Command(NamedTuple):
    help: str
    input_help: str
    options: tuple[tuple[str, dict[str, Any]], ...]
    run: Callable[[Ring, argparse.Namespace, str], _Outcome]


_IDEAL_TEXT = "polynomial, or generators joined by ';'"
_ROOT_LEVEL = ("--level", dict(type=int, default=1, help="root level e >= 1"))
_MODULE_OPTIONS = (
    ("--K", dict(default="0", help="relation ideal generators (default 0)")),
    ("--N", dict(default="1", help="ambient ideal generators (default 1)")),
)
_BUDGET_ITERS = (
    "--budget-iters",
    dict(type=int, default=64, help="cap on fixed-point iterations (default 64)"),
)

_COMMANDS: dict[str, _Command] = {
    "root": _Command(
        "Frobenius root of a polynomial or ideal",
        _IDEAL_TEXT,
        (_ROOT_LEVEL,),
        _cmd_root,
    ),
    "bracket": _Command(
        "bracket power of an ideal",
        "generators joined by ';'",
        (("--level", dict(type=int, default=1, help="bracket level e >= 0")),),
        _cmd_bracket,
    ),
    "testideal": _Command(
        "test ideal of f at exponent m/q^e",
        "polynomial f",
        (
            ("--m", dict(type=int, required=True, help="numerator exponent")),
            ("--e", dict(type=int, required=True, help="level, denominator q^e")),
        ),
        _cmd_testideal,
    ),
    "fpt": _Command(
        "F-pure threshold bracket at a level",
        "polynomial f with f(0) = 0",
        (("--max-e", dict(type=int, default=6, help="bracket level (default 6)")),),
        _cmd_fpt,
    ),
    "je-chain": _Command(
        "direct vs iterated test-ideal chains, level by level",
        "polynomial f",
        (("--max-e", dict(type=int, default=4, help="chain length (default 4)")),),
        _cmd_je_chain,
    ),
    "minimalize": _Command(
        "minimal model of a module",
        "multiplier polynomial f",
        (*_MODULE_OPTIONS, _BUDGET_ITERS),
        _cmd_minimalize,
    ),
    "nilpotency": _Command(
        "order of nilpotency, if within budget",
        "multiplier polynomial f",
        (
            *_MODULE_OPTIONS,
            ("--max-e", dict(type=int, default=32, help="budget (default 32)")),
        ),
        _cmd_nilpotency,
    ),
    "verify": _Command(
        "cross-check the fast paths against the brute-force oracles",
        _IDEAL_TEXT,
        (_ROOT_LEVEL,),
        _cmd_verify,
    ),
}


@functools.cache
def build_parser() -> _ArgumentParser:
    """The one parser, built on first use; callers must not modify it."""
    common = _ArgumentParser(add_help=False)
    ring_group = common.add_argument_group("ring")
    ring_group.add_argument("--p", type=int, required=True, help="prime characteristic")
    ring_group.add_argument(
        "--s", type=int, default=1, help="Frobenius step; the map raises to q = p^s"
    )
    ring_group.add_argument(
        "--vars", required=True, help="comma-separated variable names, e.g. x,y"
    )
    ring_group.add_argument(
        "--order",
        choices=("grevlex", "lex", "elim"),
        default="grevlex",
        help="monomial order (default grevlex)",
    )
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--file",
        help="batch mode: read one input per line (# starts a comment); implies --json",
    )
    common.add_argument(
        "--budget-spairs",
        type=int,
        default=None,
        help="cap on S-pairs per basis computation",
    )

    parser = _ArgumentParser(
        prog="fsing",
        description="Exact Frobenius computations over F_p[x1..xn].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        for flag, options in command.options:
            sp.add_argument(flag, **options)
        sp.add_argument("input", nargs="?", help=command.input_help)
    return parser


def _classify(err: Exception) -> int:
    if isinstance(err, ParseError):
        return EXIT_PARSE
    if isinstance(err, ResourceError):
        return EXIT_RESOURCE
    return EXIT_DOMAIN


def _ring_payload(p: int, s: int, var_names: Sequence[str], order: str) -> dict[str, Any]:
    return {"p": p, "s": s, "vars": list(var_names), "order": order}


def _print_error_record(
    command: str, ring: dict[str, Any], inp: dict[str, Any], err: FSingError
) -> None:
    error = {"type": type(err).__name__, "message": str(err)}
    print(json.dumps({"command": command, "ring": ring, "input": inp, "error": error}))


def _refuse(args: argparse.Namespace, ring: dict[str, Any], err: FSingError) -> int:
    # a failure before any input runs: the ring or the batch file
    if args.json or args.file is not None:
        inp = {"text": args.input} if args.file is None else {"file": args.file}
        _print_error_record(args.command, ring, inp, err)
    print(f"fsing: error: {err}", file=sys.stderr)
    return _classify(err)


def _run_one(
    ring: Ring, args: argparse.Namespace, text: str, as_json: bool
) -> int:
    ring_payload = _ring_payload(ring.p, ring.s, ring.var_names, ring.order)
    start = time.perf_counter()
    try:
        outcome = _COMMANDS[args.command].run(ring, args, text)
    except FSingError as err:
        if as_json:
            _print_error_record(args.command, ring_payload, {"text": text}, err)
        print(f"fsing {args.command}: error: {err}", file=sys.stderr)
        return _classify(err)
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    certificate = outcome.certificate
    if as_json:
        record: dict[str, Any] = {
            "command": args.command,
            "ring": ring_payload,
            "input": outcome.input,
            "result": outcome.result,
        }
        if certificate is not None:
            record["certificate"] = certificate
        record["timing_ms"] = elapsed_ms
        print(json.dumps(record))
    else:
        lines = outcome.lines + [
            f"certificate {name}: {value}" for name, value in (certificate or {}).items()
        ]
        print("\n".join(lines))
    return EXIT_DOMAIN if outcome.failed else EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.file is not None and args.input is not None:
        parser.error("give either --file or an input, not both")

    var_names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    flags = _ring_payload(args.p, args.s, var_names, args.order)
    try:
        ring = Ring(p=args.p, var_names=var_names, s=args.s, order=args.order)
    except FSingError as err:
        return _refuse(args, flags, err)

    budget = MAX_SPAIRS.get() if args.budget_spairs is None else args.budget_spairs
    token = MAX_SPAIRS.set(budget)
    try:
        if args.file is not None:
            try:
                with open(args.file, "r", encoding="utf-8") as handle:
                    lines = handle.readlines()
            except (OSError, UnicodeDecodeError) as err:
                return _refuse(args, flags, DomainError(f"cannot read {args.file}: {err}"))
            exit_code = EXIT_OK
            for line in lines:
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                code = _run_one(ring, args, text, as_json=True)
                if code != EXIT_OK and exit_code == EXIT_OK:
                    exit_code = code
            return exit_code
        if args.input is None:
            parser.error(f"the {args.command} command needs an input polynomial")
        return _run_one(ring, args, args.input, as_json=args.json)
    finally:
        MAX_SPAIRS.reset(token)


if __name__ == "__main__":
    sys.exit(main())
