"""Command line interface.

Exit codes: 0 success, 1 domain or validation problems, 2 exhausted
resource budgets, 3 unparseable input or usage errors.  With ``--json``
every result is a single JSON object with the fixed top-level fields
``command``, ``ring``, ``input``, ``result``, optional ``certificate`` and
``timing_ms``; ``--file`` processes one input per line and emits one JSON
object per line (JSON mode is implied).  Ideal-valued arguments take
semicolon-separated generators in one shell argument.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any, Callable, Sequence

from .errors import FSingError, ParseError, ResourceError
from .frobmod import FrobModule
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


def _parse_ideal(ring: Ring, text: str) -> Ideal:
    parts = [part.strip() for part in text.split(";")]
    gens = [ring(part) for part in parts if part]
    return Ideal(ring, gens)


def _gen_strings(ideal: Ideal) -> list[str]:
    return [str(g) for g in ideal.groebner()]


def build_parser() -> _ArgumentParser:
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
    common.add_argument(
        "--budget-iters",
        type=int,
        default=64,
        help="cap on fixed-point iterations (default 64)",
    )

    parser = _ArgumentParser(
        prog="fsing",
        description="Exact Frobenius computations over F_p[x1..xn].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "root",
        parents=[common],
        help="Frobenius root of a polynomial or ideal",
    )
    sp.add_argument("--level", type=int, default=1, help="root level e >= 1")
    sp.add_argument("input", nargs="?", help="polynomial, or generators joined by ';'")

    sp = sub.add_parser(
        "bracket", parents=[common], help="bracket power of an ideal"
    )
    sp.add_argument("--level", type=int, default=1, help="bracket level e >= 0")
    sp.add_argument("input", nargs="?", help="generators joined by ';'")

    sp = sub.add_parser(
        "testideal", parents=[common], help="test ideal of f at exponent m/q^e"
    )
    sp.add_argument("--m", type=int, required=True, help="numerator exponent")
    sp.add_argument("--e", type=int, required=True, help="level, denominator q^e")
    sp.add_argument("input", nargs="?", help="polynomial f")

    sp = sub.add_parser(
        "fpt", parents=[common], help="F-pure threshold bracket at a level"
    )
    sp.add_argument("--max-e", type=int, default=6, help="bracket level (default 6)")
    sp.add_argument("input", nargs="?", help="polynomial f with f(0) = 0")

    sp = sub.add_parser(
        "je-chain",
        parents=[common],
        help="direct vs iterated test-ideal chains, level by level",
    )
    sp.add_argument("--max-e", type=int, default=4, help="chain length (default 4)")
    sp.add_argument("input", nargs="?", help="polynomial f")

    sp = sub.add_parser(
        "minimalize", parents=[common], help="minimal model of a module"
    )
    sp.add_argument("--K", default="0", help="relation ideal generators (default 0)")
    sp.add_argument("--N", default="1", help="ambient ideal generators (default 1)")
    sp.add_argument("input", nargs="?", help="multiplier polynomial f")

    sp = sub.add_parser(
        "nilpotency", parents=[common], help="order of nilpotency, if within budget"
    )
    sp.add_argument("--K", default="0", help="relation ideal generators (default 0)")
    sp.add_argument("--N", default="1", help="ambient ideal generators (default 1)")
    sp.add_argument("--max-e", type=int, default=32, help="budget (default 32)")
    sp.add_argument("input", nargs="?", help="multiplier polynomial f")

    sp = sub.add_parser(
        "verify",
        parents=[common],
        help="cross-check the fast paths against the brute-force oracles",
    )
    sp.add_argument("--level", type=int, default=1, help="root level e >= 1")
    sp.add_argument("input", nargs="?", help="polynomial, or generators joined by ';'")

    return parser


Payload = tuple[dict[str, Any], dict[str, Any], dict[str, Any] | None]


def _cmd_root(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    ideal = _parse_ideal(ring, text)
    root = ideal_root(ideal, args.level)
    inp = {"ideal": [str(g) for g in ideal.gens], "level": args.level}
    return inp, {"generators": _gen_strings(root)}, None


def _cmd_bracket(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    ideal = _parse_ideal(ring, text)
    power = ideal.bracket_power(args.level)
    inp = {"ideal": [str(g) for g in ideal.gens], "level": args.level}
    return inp, {"generators": _gen_strings(power)}, None


def _cmd_testideal(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    f = ring(text)
    ideal = test_ideal(f, args.m, args.e)
    inp = {"poly": str(f), "m": args.m, "e": args.e}
    return inp, {"generators": _gen_strings(ideal)}, None


def _cmd_fpt(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    f = ring(text)
    # nu and the bracket denominators reach q^e, which must convert to text
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.max_e * math.log10(ring.q) >= limit:
        raise ResourceError(
            f"level {args.max_e} gives numbers of more than {limit} digits"
        )
    bracket = fpt_bracket(f, args.max_e)
    inp = {"poly": str(f), "max_e": args.max_e}
    result = {
        "level": bracket.level,
        "nu": bracket.nu,
        "lo": str(bracket.lo),
        "hi": str(bracket.hi),
        "interval": str(bracket),
    }
    return inp, result, None


def _cmd_je_chain(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    f = ring(text)
    levels = je_chain(f, args.max_e)
    inp = {"poly": str(f), "max_e": args.max_e}
    rows = [
        {
            "level": lv.level,
            "direct": _gen_strings(lv.direct),
            "iterated": _gen_strings(lv.iterated),
            "equal": lv.equal,
        }
        for lv in levels
    ]
    return inp, {"levels": rows, "all_equal": all(lv.equal for lv in levels)}, None


def _module_from_args(ring: Ring, args: argparse.Namespace, text: str) -> FrobModule:
    relations = _parse_ideal(ring, args.K)
    ambient = _parse_ideal(ring, args.N)
    return FrobModule.validate(relations, ambient, ring(text))


def _cmd_minimalize(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    module = _module_from_args(ring, args, text)
    report = module.minimalize(iteration_budget=args.budget_iters)
    inp = {
        "multiplier": str(module.multiplier),
        "relations": [str(g) for g in module.relations.gens],
        "ambient": [str(g) for g in module.ambient.gens],
    }
    result = {
        "relations": _gen_strings(report.result.relations),
        "ambient": _gen_strings(report.result.ambient),
        "kernel_chain_length": report.kernel_chain_length,
        "fr_iterations": report.fr_iterations,
    }
    return inp, result, report.certificate.as_dict()


def _cmd_nilpotency(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    module = _module_from_args(ring, args, text)
    order = module.nilpotency_order(args.max_e)
    inp = {
        "multiplier": str(module.multiplier),
        "relations": [str(g) for g in module.relations.gens],
        "ambient": [str(g) for g in module.ambient.gens],
        "max_e": args.max_e,
    }
    result = {
        "order": order,
        "within_budget": order is not None,
        "budget": args.max_e,
    }
    return inp, result, None


def _cmd_verify(ring: Ring, args: argparse.Namespace, text: str) -> Payload:
    ideal = _parse_ideal(ring, text)
    level = args.level
    checks: list[dict[str, str]] = []

    def record(name: str, status: str) -> None:
        checks.append({"name": name, "status": status})

    root = ideal_root(ideal, level)

    # the root must be big enough: I <= root^[q^e]
    bracket = root.bracket_power(level)
    ok = all(bracket.contains(g) for g in ideal.gens)
    record("root-bracket-containment", "passed" if ok else "failed")

    if level >= 2:
        iterated = ideal
        for _ in range(level):
            iterated = ideal_root(iterated, 1)
        record(
            "iterated-root-agreement",
            "passed" if iterated == root else "failed",
        )
    else:
        record("iterated-root-agreement", "skipped")

    if ideal.gens and all(g.is_monomial() for g in ideal.gens):
        expected = Ideal(
            ring,
            tuple(
                ring.monomial(
                    monomial_root_oracle(g.leading_monomial(), ring.q, level)
                )
                for g in ideal.gens
            ),
        )
        record(
            "monomial-floor-oracle",
            "passed" if expected == root else "failed",
        )
    else:
        record("monomial-floor-oracle", "skipped")

    max_ideal_bracket = Ideal(
        ring, tuple(g.frobenius_power(level) for g in ring.gens)
    )
    agree = all(
        bracket_membership_oracle(g, level) == max_ideal_bracket.contains(g)
        for g in ideal.gens
    )
    record("bracket-membership-oracle", "passed" if agree else "failed")

    root_gb = root.groebner()
    if (
        len(ideal.gens) == 1
        and ring.n <= 2
        and root_gb
        and all(g.is_monomial() for g in root_gb)
        and max(max(g.leading_monomial()) for g in root_gb) <= 6
    ):
        cap = max(max(g.leading_monomial()) for g in root_gb) + 1
        try:
            found = smallest_ideal_bruteforce(ideal.gens[0], level, cap)
            record(
                "smallest-ideal-search",
                "passed" if found == root else "failed",
            )
        except ResourceError:
            record("smallest-ideal-search", "skipped")
    else:
        record("smallest-ideal-search", "skipped")

    inp = {"ideal": [str(g) for g in ideal.gens], "level": level}
    all_passed = all(c["status"] != "failed" for c in checks)
    return inp, {"checks": checks, "all_passed": all_passed}, None


_HANDLERS: dict[str, Callable[[Ring, argparse.Namespace, str], Payload]] = {
    "root": _cmd_root,
    "bracket": _cmd_bracket,
    "testideal": _cmd_testideal,
    "fpt": _cmd_fpt,
    "je-chain": _cmd_je_chain,
    "minimalize": _cmd_minimalize,
    "nilpotency": _cmd_nilpotency,
    "verify": _cmd_verify,
}


def _classify(err: Exception) -> int:
    if isinstance(err, ParseError):
        return EXIT_PARSE
    if isinstance(err, ResourceError):
        return EXIT_RESOURCE
    return EXIT_DOMAIN


def _ring_payload(ring: Ring) -> dict[str, Any]:
    return {
        "p": ring.p,
        "s": ring.s,
        "vars": list(ring.var_names),
        "order": ring.order,
    }


def _render_human(command: str, result: dict[str, Any], certificate: dict | None) -> str:
    lines: list[str] = []
    if command in ("root", "bracket", "testideal"):
        gens = result["generators"]
        lines.append("generators: " + ("(" + ", ".join(gens) + ")" if gens else "(0)"))
    elif command == "fpt":
        lines.append(f"level: {result['level']}")
        lines.append(f"nu: {result['nu']}")
        lines.append(f"bracket: {result['interval']}")
    elif command == "je-chain":
        for row in result["levels"]:
            direct = ", ".join(row["direct"]) or "0"
            iterated = ", ".join(row["iterated"]) or "0"
            flag = "ok" if row["equal"] else "MISMATCH"
            lines.append(
                f"e={row['level']}: direct=({direct}) iterated=({iterated}) [{flag}]"
            )
        lines.append(f"all levels equal: {result['all_equal']}")
    elif command == "minimalize":
        rel = ", ".join(result["relations"]) or "0"
        amb = ", ".join(result["ambient"]) or "0"
        lines.append(f"relations: ({rel})")
        lines.append(f"ambient: ({amb})")
        lines.append(f"kernel chain length: {result['kernel_chain_length']}")
        lines.append(f"fr iterations: {result['fr_iterations']}")
    elif command == "nilpotency":
        if result["within_budget"]:
            lines.append(f"nilpotent of order {result['order']}")
        else:
            lines.append(f"not nilpotent within budget {result['budget']}")
    elif command == "verify":
        for check in result["checks"]:
            lines.append(f"{check['name']}: {check['status']}")
        lines.append(f"all passed: {result['all_passed']}")
    if certificate is not None:
        for name, value in certificate.items():
            lines.append(f"certificate {name}: {value}")
    return "\n".join(lines)


def _run_one(
    ring: Ring, args: argparse.Namespace, text: str, as_json: bool
) -> int:
    handler = _HANDLERS[args.command]
    start = time.perf_counter()
    try:
        inp, result, certificate = handler(ring, args, text)
    except FSingError as err:
        code = _classify(err)
        if as_json:
            record = {
                "command": args.command,
                "ring": _ring_payload(ring),
                "input": {"text": text},
                "error": {"type": type(err).__name__, "message": str(err)},
            }
            print(json.dumps(record))
        print(f"fsing {args.command}: error: {err}", file=sys.stderr)
        return code
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    if as_json:
        record: dict[str, Any] = {
            "command": args.command,
            "ring": _ring_payload(ring),
            "input": inp,
            "result": result,
        }
        if certificate is not None:
            record["certificate"] = certificate
        record["timing_ms"] = elapsed_ms
        print(json.dumps(record))
    else:
        print(_render_human(args.command, result, certificate))
    if args.command == "verify" and not result["all_passed"]:
        return EXIT_DOMAIN
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        ring = Ring(
            p=args.p,
            var_names=tuple(v.strip() for v in args.vars.split(",") if v.strip()),
            s=args.s,
            order=args.order,
        )
    except FSingError as err:
        print(f"fsing: error: {err}", file=sys.stderr)
        return _classify(err)

    budget = MAX_SPAIRS.get() if args.budget_spairs is None else args.budget_spairs
    token = MAX_SPAIRS.set(budget)
    try:
        if args.file is not None:
            try:
                with open(args.file, "r", encoding="utf-8") as handle:
                    lines = handle.readlines()
            except OSError as err:
                print(f"fsing: error: cannot read {args.file}: {err}", file=sys.stderr)
                return EXIT_DOMAIN
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
