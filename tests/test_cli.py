"""Command line interface: subcommands, JSON contract, exit codes."""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap
import threading

import pytest

import fsing.cli as cli
from fsing.cli import build_parser, main
from fsing import Certificate, FrobModule, Ideal, Ring, buchberger
from fsing.groebner import MAX_SPAIRS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestWorkedExamples:
    def test_root(self, capsys):
        code, record, _ = run_json(
            capsys,
            "root", "--p", "2", "--vars", "x,y", "--level", "1",
            "--json", "x^3*y^2",
        )
        assert code == 0
        assert record["result"]["generators"] == ["x*y"]

    def test_minimalize_principal(self, capsys):
        code, record, _ = run_json(
            capsys, "minimalize", "--p", "2", "--vars", "x", "--json", "x^2"
        )
        assert code == 0
        assert record["result"]["ambient"] == ["x"]
        assert record["result"]["relations"] == []
        assert record["certificate"] == {
            "structural-map-injective": True,
            "fr-fixed": True,
        }

    def test_fpt_level_one(self, capsys):
        code, record, _ = run_json(
            capsys,
            "fpt", "--p", "2", "--vars", "x,y", "--max-e", "1",
            "--json", "x^2 + y^3",
        )
        assert code == 0
        assert record["result"]["nu"] == 0
        assert record["result"]["interval"] == "(0, 1/2]"


class TestJsonContract:
    def test_field_order(self, capsys):
        code, record, _ = run_json(
            capsys, "root", "--p", "3", "--vars", "x", "--json", "x^4"
        )
        assert code == 0
        assert list(record) == ["command", "ring", "input", "result", "timing_ms"]
        assert list(record["ring"]) == ["p", "s", "vars", "order"]
        assert record["command"] == "root"
        assert record["ring"] == {
            "p": 3, "s": 1, "vars": ["x"], "order": "grevlex",
        }
        assert isinstance(record["timing_ms"], float)

    def test_certificate_field_present_for_minimalize(self, capsys):
        code, record, _ = run_json(
            capsys, "minimalize", "--p", "2", "--vars", "x", "--json", "x^3"
        )
        assert code == 0
        assert list(record) == [
            "command", "ring", "input", "result", "certificate", "timing_ms",
        ]

    def test_generators_sorted_descending(self, capsys):
        code, record, _ = run_json(
            capsys,
            "bracket", "--p", "2", "--vars", "x,y", "--level", "1",
            "--json", "x; y",
        )
        assert code == 0
        assert record["result"]["generators"] == ["x^2", "y^2"]

    def test_output_round_trips(self, capsys):
        from fsing import ideal_root

        ring = Ring(p=2, var_names=("x", "y"))
        code, record, _ = run_json(
            capsys,
            "root", "--p", "2", "--vars", "x,y", "--level", "1",
            "--json", "x^3*y^2 + x^2*y^4; x^5",
        )
        assert code == 0
        reparsed = Ideal(
            ring, tuple(ring(g) for g in record["result"]["generators"])
        )
        direct = ideal_root(
            Ideal(ring, (ring("x^3*y^2 + x^2*y^4"), ring("x^5"))), 1
        )
        assert reparsed == direct

    def test_frobenius_step_flag(self, capsys):
        code, record, _ = run_json(
            capsys,
            "root", "--p", "2", "--s", "2", "--vars", "x", "--json", "x^4",
        )
        assert code == 0
        assert record["ring"]["s"] == 2
        assert record["result"]["generators"] == ["x"]


class TestHumanOutput:
    def test_root(self, capsys):
        code, out, _ = run_cli(
            capsys, "root", "--p", "2", "--vars", "x,y", "x^3*y^2"
        )
        assert code == 0
        assert out.strip() == "generators: (x*y)"

    def test_je_chain(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "je-chain", "--p", "2", "--vars", "x", "--max-e", "2", "x^3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "e=1: direct=(x) iterated=(x) [ok]"
        assert lines[-1] == "all levels equal: True"

    def test_minimalize_certificate_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimalize", "--p", "2", "--vars", "x", "x^2"
        )
        assert code == 0
        assert "ambient: (x)" in out
        assert "certificate structural-map-injective: True" in out
        assert "certificate fr-fixed: True" in out

    def test_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "--p", "3", "--vars", "x,y", "x + y; x*y"
        )
        assert code == 0
        assert out == "generators: (y^6, x^3 + y^3)\n"

    def test_bracket_of_the_zero_ideal(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "--p", "3", "--vars", "x,y", "0")
        assert code == 0
        assert out == "generators: (0)\n"

    def test_testideal(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "testideal", "--p", "3", "--vars", "x,y", "--m", "5", "--e", "1",
            "x^2 + y^3",
        )
        assert code == 0
        assert out == "generators: (x*y^3 + x^3, y^4 + x^2*y)\n"

    def test_fpt(self, capsys):
        code, out, _ = run_cli(
            capsys, "fpt", "--p", "2", "--vars", "x,y", "--max-e", "3", "x^2 + y^3"
        )
        assert code == 0
        assert out == "level: 3\nnu: 3\nbracket: (3/8, 1/2]\n"

    def test_nilpotency(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "nilpotency", "--p", "2", "--vars", "x",
            "--K", "x^2", "--N", "1", "x^3",
        )
        assert code == 0
        assert out.strip() == "nilpotent of order 2"

    def test_nilpotency_budget_exhausted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "nilpotency", "--p", "2", "--vars", "x",
            "--K", "x", "--N", "1", "--max-e", "4", "x",
        )
        assert code == 0
        assert out.strip() == "not nilpotent within budget 4"

    def test_non_nilpotent_module_at_the_default_budget(self, capsys):
        # answered as soon as the shrinking chain stops above K
        code, record, _ = run_json(
            capsys,
            "nilpotency", "--p", "3", "--vars", "x,y",
            "--K", "2*x+y", "--N", "2*x+y;2*x",
            "--json", "2*x^2*y^3+2*x*y^4+2*y^5",
        )
        assert code == 0
        assert record["result"]["order"] is None
        assert record["result"]["within_budget"] is False
        assert record["result"]["budget"] == 32

    def test_fpt_at_a_deep_level(self, capsys):
        # nu is found digit by digit; no power of f is expanded
        code, record, _ = run_json(
            capsys,
            "fpt", "--p", "2", "--vars", "x,y,z", "--max-e", "16",
            "--json", "x^3+y^3+z^3+x*y*z",
        )
        assert code == 0
        assert record["result"]["nu"] == 65535


class TestIdealArguments:
    def test_minimalize_with_relations(self, capsys):
        code, record, _ = run_json(
            capsys,
            "minimalize", "--p", "2", "--vars", "x",
            "--K", "x^6", "--N", "1", "--json", "x^6",
        )
        assert code == 0
        assert record["result"]["relations"] == ["x^6"]
        assert record["result"]["ambient"] == ["x^5"]
        assert record["result"]["fr_iterations"] == 3
        assert record["certificate"]["structural-map-injective"] is True

    def test_multi_generator_ideal(self, capsys):
        code, record, _ = run_json(
            capsys,
            "root", "--p", "2", "--vars", "x,y", "--json",
            "x^2*y^2; y^4",
        )
        assert code == 0
        assert record["result"]["generators"] == ["x*y", "y^2"]


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "fpt", "--p", "2", "--vars", "x", "x + 1"
        )
        assert code == 1
        assert "error" in err

    def test_domain_error_json_record(self, capsys):
        code, out, err = run_cli(
            capsys,
            "testideal", "--p", "2", "--vars", "x",
            "--m", "-1", "--e", "1", "--json", "x",
        )
        assert code == 1
        record = json.loads(out)
        assert record["error"]["type"] == "DomainError"
        assert list(record) == ["command", "ring", "input", "error"]

    def test_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "minimalize", "--p", "2", "--vars", "x",
            "--K", "x", "--N", "x^2", "x^2",
        )
        assert code == 1
        assert "error" in err

    def test_resource_error(self, capsys):
        for argv in [
            # the root is (x*y + y^2, x^2), whose basis needs an S-pair
            ["root", "--p", "2", "--vars", "x,y", "x^2*y^2 + y^4; x^4"],
            # a descent step of nu builds a basis that needs an S-pair
            ["fpt", "--p", "2", "--vars", "x,y", "--max-e", "4", "x^2*y + x*y^3 + y^5"],
        ]:
            code, _, err = run_cli(capsys, *argv, "--budget-spairs", "0")
            assert code == 2, argv
            assert "error" in err

    def test_budget_flag_lasts_one_command(self, capsys):
        before = MAX_SPAIRS.get()
        code, _, _ = run_cli(
            capsys, "root", "--p", "2", "--vars", "x,y",
            "--budget-spairs", "0", "x^2*y^2 + y^4; x^4",
        )
        assert code == 2
        assert MAX_SPAIRS.get() == before == 200_000
        ring = Ring(p=2, var_names=("x", "y"))
        x, y = ring.gens
        assert len(buchberger([x * y + y**2, x**2], ring)) == 3

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="the interpreter has no limit on integer string conversion",
    )
    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "human"])
    def test_bracket_level_above_the_degree_guard(self, capsys, as_json):
        # the degree 2^20000 has more digits than Python converts to text
        flags = ["--json"] if as_json else []
        code, out, err = run_cli(
            capsys, "bracket", "--p", "2", "--vars", "x", "--level", "20000", *flags, "x"
        )
        assert code == 2
        assert "Traceback" not in err
        if as_json:
            (line,) = out.splitlines()
            assert json.loads(line)["error"]["type"] == "ResourceError"
        else:
            assert out == ""
            assert "degree guard" in err

    def test_a_huge_bracket_level_is_refused_at_once(self, capsys):
        # 3^100000000 is never formed: the level is capped before the guard
        code, out, err = run_cli(
            capsys, "bracket", "--p", "3", "--vars", "x", "--level", "100000000",
            "--json", "x",
        )
        assert code == 2
        (line,) = out.splitlines()
        record = json.loads(line)
        assert list(record) == ["command", "ring", "input", "error"]
        assert record["input"] == {"text": "x"}
        assert record["error"]["type"] == "ResourceError"
        assert "degree guard" in err

    def test_fpt_refuses_a_level_whose_numbers_cannot_be_printed(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, record, _ = run_json(
                capsys, "fpt", "--p", "2", "--vars", "x", "--max-e", "2200",
                "--json", "x",
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert record["error"]["type"] == "ResourceError"

    def test_iteration_budget(self, capsys):
        code, _, err = run_cli(
            capsys,
            "minimalize", "--p", "2", "--vars", "x",
            "--K", "x^6", "--budget-iters", "1", "x^6",
        )
        assert code == 2
        assert "error" in err

    def test_negative_iteration_budget(self, capsys):
        code, _, err = run_cli(
            capsys,
            "minimalize", "--p", "2", "--vars", "x",
            "--K", "x^6", "--budget-iters", "-5", "x^6",
        )
        assert code == 1
        assert "iteration budget must be an integer >= 0" in err

    def test_negative_spair_budget(self, capsys):
        # refused although this root's basis is all-monomial and spends none
        code, record, _ = run_json(
            capsys,
            "root", "--p", "2", "--vars", "x,y", "--budget-spairs", "-1",
            "--json", "x^3*y^2",
        )
        assert code == 1
        assert record["error"]["type"] == "DomainError"
        assert "S-pair budget" in record["error"]["message"]

    def test_parse_error(self, capsys):
        code, _, err = run_cli(
            capsys, "root", "--p", "2", "--vars", "x", "x +* 1"
        )
        assert code == 3
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "--p", "2", "--vars", "x", "x"])
        assert info.value.code == 3

    def test_missing_input(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["root", "--p", "2", "--vars", "x"])
        assert info.value.code == 3

    def test_bad_prime(self, capsys):
        code, _, err = run_cli(capsys, "root", "--p", "4", "--vars", "x", "x")
        assert code == 1
        assert "error" in err


class TestRingErrors:
    # a ring that cannot be built still gives one JSON record, whose ring
    # echoes the flags
    @pytest.mark.parametrize(
        "var_flag,p,message",
        [("x", "4", "characteristic must be prime"), ("x,x", "2", "duplicate variable")],
        ids=["bad-prime", "duplicate-variable"],
    )
    def test_json_error_record(self, capsys, var_flag, p, message):
        code, out, err = run_cli(
            capsys, "root", "--p", p, "--vars", var_flag, "--json", "x"
        )
        assert code == 1
        (line,) = out.splitlines()
        record = json.loads(line)
        assert list(record) == ["command", "ring", "input", "error"]
        assert record["command"] == "root"
        assert record["ring"] == {
            "p": int(p), "s": 1, "vars": var_flag.split(","), "order": "grevlex",
        }
        assert record["input"] == {"text": "x"}
        assert record["error"]["type"] == "DomainError"
        assert message in record["error"]["message"]
        assert message in err

    def test_batch_error_record(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("x\nx^2\n")
        code, out, _ = run_cli(
            capsys, "fpt", "--p", "4", "--vars", "x", "--order", "lex",
            "--file", str(batch),
        )
        assert code == 1
        (line,) = out.splitlines()
        record = json.loads(line)
        assert list(record) == ["command", "ring", "input", "error"]
        assert record["ring"] == {"p": 4, "s": 1, "vars": ["x"], "order": "lex"}
        assert record["input"] == {"file": str(batch)}

    def test_human_mode_writes_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "root", "--p", "2", "--vars", "x,x", "x")
        assert code == 1
        assert out == ""
        assert "duplicate variable" in err


COMMON_OPTIONS = {
    "-h", "--help", "--p", "--s", "--vars", "--order",
    "--json", "--file", "--budget-spairs",
}
# a small valid run of every subcommand that sets each of its own options
SMALL_RUNS = {
    "root": ["--level", "1", "x^3*y^2"],
    "bracket": ["--level", "1", "x; y"],
    "testideal": ["--m", "3", "--e", "1", "x^2 + y^3"],
    "fpt": ["--max-e", "2", "x^2 + y^3"],
    "je-chain": ["--max-e", "2", "x^3"],
    "minimalize": ["--K", "x^6", "--N", "1", "--budget-iters", "8", "x^6"],
    "nilpotency": ["--K", "x^2", "--N", "1", "--max-e", "4", "x^3"],
    "verify": ["--level", "1", "x^3*y^2"],
}
# read by main for every subcommand, so no handler has to read them
READ_BY_MAIN = {
    "command", "input", "p", "s", "vars", "order", "json", "file", "budget_spairs",
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


class TestCommandTable:
    def test_each_subcommand_has_exactly_its_options(self):
        own = {
            "root": {"--level"},
            "bracket": {"--level"},
            "testideal": {"--m", "--e"},
            "fpt": {"--max-e"},
            "je-chain": {"--max-e"},
            "minimalize": {"--K", "--N", "--budget-iters"},
            "nilpotency": {"--K", "--N", "--max-e"},
            "verify": {"--level"},
        }
        subparsers = _subparsers()
        assert set(subparsers) == set(own) == set(SMALL_RUNS)
        for name, sp in subparsers.items():
            flags = {flag for a in sp._actions for flag in a.option_strings}
            assert flags == COMMON_OPTIONS | own[name], name

    @pytest.mark.parametrize(
        "command", sorted(set(SMALL_RUNS) - {"minimalize"})
    )
    def test_budget_iters_is_a_usage_error_outside_minimalize(self, capsys, command):
        *options, text = SMALL_RUNS[command]
        with pytest.raises(SystemExit) as info:
            main([
                command, "--p", "2", "--vars", "x,y", *options,
                "--budget-iters", "3", text,
            ])
        assert info.value.code == 3

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_every_declared_option_is_read(self, capsys, monkeypatch, command):
        # a dead knob is an option the parser accepts and no code reads
        reads: set[str] = set()
        parsed: list[bool] = []

        class RecordingNamespace(argparse.Namespace):
            def __getattribute__(self, name):
                if parsed:
                    reads.add(name)
                return super().__getattribute__(name)

        argv = [command, "--p", "2", "--vars", "x,y", *SMALL_RUNS[command]]
        declared = set(vars(build_parser().parse_args(argv))) - READ_BY_MAIN
        assert declared
        parse = cli._ArgumentParser.parse_args

        def parse_args(self, args=None, namespace=None):
            parsed_args = parse(self, args, RecordingNamespace())
            parsed.append(True)
            return parsed_args

        # patched on the class and undone after the test: the parser object
        # is shared by every main call in the process
        monkeypatch.setattr(cli._ArgumentParser, "parse_args", parse_args)
        assert main(argv) == 0
        assert declared <= reads, f"{command} never reads {declared - reads}"


def _fingerprint() -> str:
    # every field parse_args reads, for the parser and each subparser, as
    # text, so that a later in-place change cannot alter the snapshot too
    parsers = {"fsing": build_parser(), **_subparsers()}
    return repr({
        name: [
            (
                a.option_strings, a.dest, a.default, a.type, a.required,
                None if a.choices is None else list(a.choices), a.nargs,
            )
            for a in sp._actions
        ]
        for name, sp in parsers.items()
    })


class _PerThreadStream(io.TextIOBase):
    """A stdout/stderr stand-in that keeps each thread's text apart."""

    def __init__(self):
        self._local = threading.local()

    def write(self, text):
        return self.own().write(text)

    def own(self) -> io.StringIO:
        if not hasattr(self._local, "text"):
            self._local.text = io.StringIO()
        return self._local.text

    def take(self) -> str:
        """The calling thread's text so far, which is then cleared."""
        text = self.own().getvalue()
        self._local.text = io.StringIO()
        return text


_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')
# a non-monomial system whose basis needs an S-pair: exit 2 under a cap of 0
NEEDS_SPAIRS = ["root", "--p", "2", "--vars", "x,y", "--json", "x^2*y^2 + y^4; x^4"]


class TestSharedParser:
    """main builds the parser once per process, and parsing never changes it."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_every_default_is_immutable(self):
        parsers = [build_parser(), *_subparsers().values()]
        for sp in parsers:
            for action in sp._actions:
                assert action.default is None or type(action.default) in (
                    str, int, bool,
                ), (sp.prog, action.dest)

    def test_main_leaves_the_parser_as_built(self, capsys, tmp_path):
        parser = build_parser()
        before = _fingerprint()
        batch = tmp_path / "inputs.txt"
        batch.write_text("x\n")
        for command, options in SMALL_RUNS.items():
            for flags in ([], ["--json"]):
                argv = [command, "--p", "2", "--vars", "x,y", *flags, *options]
                assert main(argv) == 0, argv
        usage_errors = [
            ["root", "--vars", "x", "x"],  # missing --p
            ["root", "--p", "2", "--vars", "x", "--frobnicate", "x"],
            ["root", "--p", "2", "--vars", "x", "--budget-iters", "3", "x"],
            ["root", "--p", "2", "--vars", "x", "--file", str(batch), "x"],
            ["root", "--p", "2", "--vars", "x"],  # missing input
        ]
        for argv in usage_errors:
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 3, argv
        for argv in (["--help"], ["root", "--help"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0, argv
        capsys.readouterr()
        assert build_parser() is parser
        assert _fingerprint() == before

    def test_concurrent_calls_with_different_spair_caps(self, monkeypatch):
        stdout, stderr = _PerThreadStream(), _PerThreadStream()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)

        def run(argv):
            code = main(argv)
            return code, _TIMING.sub('"timing_ms": 0', stdout.take()), stderr.take()

        capped = [*NEEDS_SPAIRS[:-1], "--budget-spairs", "0", NEEDS_SPAIRS[-1]]
        serial = {"capped": run(capped), "free": run(NEEDS_SPAIRS)}
        code, out, _ = serial["capped"]
        assert code == 2
        assert [json.loads(line)["error"]["type"] for line in out.splitlines()] == [
            "ResourceError"
        ]
        code, out, _ = serial["free"]
        assert code == 0
        assert "result" in json.loads(out)

        rounds = 30
        barrier = threading.Barrier(4)
        seen: dict[str, list] = {"capped": [], "free": []}

        def worker(name, argv):
            barrier.wait(timeout=60)
            seen[name].extend(run(argv) for _ in range(rounds))

        threads = [
            threading.Thread(target=worker, args=(name, argv))
            for name, argv in [
                ("capped", capped), ("free", NEEDS_SPAIRS),
                ("capped", capped), ("free", NEEDS_SPAIRS),
            ]
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside parse_args too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name, outcomes in seen.items():
            assert len(outcomes) == 2 * rounds
            assert all(outcome == serial[name] for outcome in outcomes), name

    def test_importing_the_cli_builds_no_parser(self):
        # the parser is built on the first main call, not at import, and
        # later calls build none
        script = textwrap.dedent(
            """
            import argparse, contextlib, io
            built = []
            init = argparse.ArgumentParser.__init__
            def counting_init(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting_init
            import fsing.cli
            counts = [len(built)]
            for _ in range(3):
                with contextlib.redirect_stdout(io.StringIO()):
                    fsing.cli.main(["root", "--p", "2", "--vars", "x", "--json", "x^2"])
                counts.append(len(built))
            print(counts)
            """
        )
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # the shared options, the top parser and one parser per subcommand
        first = 2 + len(SMALL_RUNS)
        assert proc.stdout.strip() == str([0, first, first, first])


class TestBatchMode:
    def test_batch_json_lines(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text(
            "# polynomial roots, one per line\n"
            "x^3*y^2\n"
            "\n"
            "x^2*y^2   # trailing comment\n"
        )
        code, out, _ = run_cli(
            capsys,
            "root", "--p", "2", "--vars", "x,y", "--file", str(batch),
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        assert records[0]["result"]["generators"] == ["x*y"]
        assert records[1]["result"]["generators"] == ["x*y"]

    def test_batch_keeps_going_and_reports_first_failure(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("x^3*y^2\nx +* y\nx*y^3\n")
        code, out, err = run_cli(
            capsys,
            "root", "--p", "2", "--vars", "x,y", "--file", str(batch),
        )
        assert code == 3
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 3
        assert "result" in records[0]
        assert records[1]["error"]["type"] == "ParseError"
        assert "result" in records[2]

    def test_batch_domain_failure_code(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("x^2 + y^3\nx + 1\n")
        code, out, _ = run_cli(
            capsys,
            "fpt", "--p", "2", "--vars", "x,y", "--file", str(batch),
        )
        assert code == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert "result" in records[0]
        assert records[1]["error"]["type"] == "DomainError"

    @pytest.mark.parametrize(
        "bad,error,expected_code",
        [
            ("(" * 250 + "x" + ")" * 250, "ParseError", 3),
            ("x^" + "9" * 5000, "ResourceError", 2),
        ],
        ids=["deep-nesting", "long-literal"],
    )
    def test_batch_goes_past_inputs_the_interpreter_cannot_take(
        self, capsys, tmp_path, bad, error, expected_code
    ):
        batch = tmp_path / "inputs.txt"
        batch.write_text(bad + "\nx^3*y^2\n")
        code, out, err = run_cli(
            capsys,
            "root", "--p", "2", "--vars", "x,y", "--file", str(batch),
        )
        assert code == expected_code
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        assert records[0]["error"]["type"] == error
        assert records[1]["result"]["generators"] == ["x*y"]
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys,
            "root", "--p", "2", "--vars", "x", "--file", "/nonexistent/f.txt",
        )
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfex\n"], ids=["missing", "not-utf8"]
    )
    def test_unreadable_file_gives_one_record(self, capsys, tmp_path, content):
        path = tmp_path / "inputs.txt"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run_cli(
            capsys, "root", "--p", "2", "--vars", "x", "--file", str(path),
        )
        assert code == 1
        (line,) = out.splitlines()
        record = json.loads(line)
        assert list(record) == ["command", "ring", "input", "error"]
        assert record["command"] == "root"
        assert record["ring"] == {"p": 2, "s": 1, "vars": ["x"], "order": "grevlex"}
        assert record["input"] == {"file": str(path)}
        assert record["error"]["type"] == "DomainError"
        assert err == f"fsing: error: {record['error']['message']}\n"
        assert err.startswith(f"fsing: error: cannot read {path}: ")

    def test_input_next_to_file_is_a_usage_error(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("x\n")
        with pytest.raises(SystemExit) as info:
            main(["root", "--p", "2", "--vars", "x", "--file", str(batch), "y"])
        assert info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "either --file or an input" in captured.err


class TestInvariantFailure:
    # A certificate that fails on the multiplier x^2 only; minimalize
    # must report it as a typed error, never as a traceback.
    @pytest.fixture(autouse=True)
    def broken_certificate(self, monkeypatch):
        certify = FrobModule.certify

        def broken(module):
            cert = certify(module)
            if module.multiplier == module.ring("x^2"):
                return Certificate(structural_map_injective=False, fr_fixed=cert.fr_fixed)
            return cert

        monkeypatch.setattr(FrobModule, "certify", broken)

    def test_json_error_record(self, capsys):
        code, record, err = run_json(
            capsys, "minimalize", "--p", "2", "--vars", "x", "--json", "x^2"
        )
        assert code == 1
        assert record["error"]["type"] == "InvariantError"
        assert "certificate failed" in record["error"]["message"]
        assert "Traceback" not in err

    def test_batch_goes_on_to_the_next_line(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("x^2\nx^3\n")
        code, out, _ = run_cli(
            capsys, "minimalize", "--p", "2", "--vars", "x", "--file", str(batch),
        )
        assert code == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        assert records[0]["error"]["type"] == "InvariantError"
        assert records[1]["certificate"] == {
            "structural-map-injective": True,
            "fr-fixed": True,
        }


class TestVerify:
    def test_monomial_input_all_checks(self, capsys):
        code, record, _ = run_json(
            capsys,
            "verify", "--p", "2", "--vars", "x,y", "--json", "x^3*y^2",
        )
        assert code == 0
        status = {c["name"]: c["status"] for c in record["result"]["checks"]}
        assert status == {
            "root-bracket-containment": "passed",
            "iterated-root-agreement": "skipped",
            "monomial-floor-oracle": "passed",
            "bracket-membership-oracle": "passed",
            "smallest-ideal-search": "passed",
        }
        assert record["result"]["all_passed"] is True

    def test_level_two_iterated_check(self, capsys):
        code, record, _ = run_json(
            capsys,
            "verify", "--p", "2", "--vars", "x", "--level", "2",
            "--json", "x^5",
        )
        assert code == 0
        status = {c["name"]: c["status"] for c in record["result"]["checks"]}
        assert status["iterated-root-agreement"] == "passed"
        assert status["smallest-ideal-search"] == "passed"

    def test_non_monomial_skips(self, capsys):
        code, record, _ = run_json(
            capsys,
            "verify", "--p", "2", "--vars", "x,y", "--json", "x^4 + y^4",
        )
        assert code == 0
        status = {c["name"]: c["status"] for c in record["result"]["checks"]}
        assert status["monomial-floor-oracle"] == "skipped"
        assert status["smallest-ideal-search"] == "skipped"
        assert status["root-bracket-containment"] == "passed"
        assert record["result"]["all_passed"] is True

    def test_human_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "3", "--vars", "x", "x^9"
        )
        assert code == 0
        assert "root-bracket-containment: passed" in out
        assert "all passed: True" in out

    @staticmethod
    def _count_roots(monkeypatch) -> list[int]:
        calls = []
        real = cli.ideal_root

        def counted(ideal, e):
            calls.append(e)
            return real(ideal, e)

        monkeypatch.setattr(cli, "ideal_root", counted)
        return calls

    def test_a_huge_level_is_refused_before_the_iterated_roots(
        self, capsys, monkeypatch
    ):
        # the maximal ideal's bracket refuses q**e before the iterated
        # check would take 10**8 level-1 roots
        calls = self._count_roots(monkeypatch)
        code, record, err = run_json(
            capsys,
            "verify", "--p", "3", "--vars", "x", "--level", "100000000",
            "--json", "x",
        )
        assert code == 2
        assert record["error"] == {
            "type": "ResourceError",
            "message": "a result would exceed the degree guard 1000000",
        }
        assert "degree guard" in err
        assert calls == [100000000]

    def test_iterated_roots_stop_at_a_fixed_point(self, capsys, monkeypatch):
        # q**19 = 524288 passes the degree guard; the root chain of x^5*y^3
        # reaches (1) at the third level-1 root and the fourth changes
        # nothing, so 19 levels cost five roots
        calls = self._count_roots(monkeypatch)
        code, record, _ = run_json(
            capsys,
            "verify", "--p", "2", "--vars", "x,y", "--level", "19",
            "--json", "x^5*y^3",
        )
        assert code == 0
        status = {c["name"]: c["status"] for c in record["result"]["checks"]}
        assert status["iterated-root-agreement"] == "passed"
        assert record["result"]["all_passed"] is True
        assert calls == [19, 1, 1, 1, 1]


def _installed_distribution():
    try:
        return importlib.metadata.distribution("fsing")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(
    _installed_distribution() is None,
    reason=(
        "the fsing package is not installed (importlib.metadata raises "
        "PackageNotFoundError), so no 'fsing' console script exists; an "
        "offline install with setuptools older than 70.1 also needs the "
        "'wheel' package, without which pip stops with "
        "\"invalid command 'bdist_wheel'\""
    ),
)
def test_console_script_installed():
    scripts = [
        ep.value
        for ep in _installed_distribution().entry_points
        if ep.group == "console_scripts" and ep.name == "fsing"
    ]
    assert scripts == ["fsing.cli:main"]
    assert shutil.which("fsing") is not None
    proc = subprocess.run(
        ["fsing", "root", "--p", "2", "--vars", "x,y", "--json", "x^3*y^2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["result"]["generators"] == ["x*y"]
