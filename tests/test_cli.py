"""CLI tests."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitizer import Sanitizer, get_sanitizer, install, uninstall
from repro.cli import COMMANDS, build_parser, main, select

REPO = Path(__file__).parent.parent
SRC = REPO / "src"
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
DOC_COMMAND = re.compile(r"^\s*(?:[A-Z_]+=\S+\s+)*python3? -m repro\s+(.*)$")
DOC_EXAMPLE = re.compile(r"python3? (examples/\S+\.py)")


def _documented_commands():
    """``(doc:line, argv)`` for every ``python -m repro ...`` line the docs show."""
    found = []
    for doc in DOCS:
        for number, line in enumerate((REPO / doc).read_text().splitlines(), 1):
            match = DOC_COMMAND.match(line)
            if match is None:
                continue
            command = re.split(r" #| > | \| ", match.group(1))[0]
            if "<" in command or "--help" in command:
                continue
            found.append((f"{doc}:{number}", shlex.split(command)))
    return found


def _inventory_names():
    """The ``repro.<name>`` rows of DESIGN.md's System inventory table."""
    design = (REPO / "DESIGN.md").read_text()
    section = design.split("## System inventory", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `repro\.([\w.]+)`", section, re.MULTILINE)


def _module_exists(dotted):
    path = SRC / "repro" / Path(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


class _FailsClockCheck(Sanitizer):
    """Fails the first clock check made once an event is traced."""

    def ensure(self, condition, check, message, **detail):
        if check == "simtime-monotonicity" and self.trace:
            condition = False
        super().ensure(condition, check, message, **detail)


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.cores == 8
        assert args.mode == "plb"

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--cores", "4", "--mode", "rss", "--load", "0.9"]
        )
        assert (args.cores, args.mode, args.load) == (4, "rss", 0.9)

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--mode", "bogus"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src"]
        assert not args.list_rules

    def test_lint_explicit_paths(self):
        args = build_parser().parse_args(["lint", "a.py", "b.py"])
        assert args.paths == ["a.py", "b.py"]

    def test_faults_options(self):
        args = build_parser().parse_args(
            ["faults", "chaos", "--quick", "--seed", "7"]
        )
        assert (args.name, args.quick, args.seed) == ("chaos", True, 7)

    def test_sanitize_is_not_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sanitize", "all"])

    def test_bench_is_not_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_every_documented_command_parses(self):
        """Regression: README advertised ``simulate steady-state-plb``, which
        argparse rejects (``simulate`` takes no positional).  A named
        positional must also resolve: ``faults chaoss`` parses."""
        commands = _documented_commands()
        assert len(commands) >= 30
        parser = build_parser()
        rejected = []
        for where, argv in commands:
            try:
                args = parser.parse_args(argv)
                command = COMMANDS[args.command]
                if command.registry is not None:
                    select(command, args.name)
            except (SystemExit, ValueError):
                rejected.append(f"{where}: {' '.join(argv)}")
        assert rejected == []

    def test_design_inventory_matches_the_tree(self):
        """DESIGN.md's System inventory is the one module inventory: every
        name it lists exists, every package has a row, and every example
        the docs tell you to run exists."""
        names = _inventory_names()
        problems = [f"no module repro.{name}" for name in names
                    if not _module_exists(name)]
        problems += [
            f"package repro.{init.parent.name} has no inventory row"
            for init in sorted((SRC / "repro").glob("*/__init__.py"))
            if init.parent.name not in names
        ]
        for doc in DOCS:
            for example in DOC_EXAMPLE.findall((REPO / doc).read_text()):
                if not (REPO / example).is_file():
                    problems.append(f"{doc} runs missing {example}")
        assert problems == []


class TestCommands:
    def test_simulate_runs(self, capsys):
        code = main(["simulate", "--cores", "2", "--duration-ms", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered:" in out
        assert "reorder:" in out

    def test_simulate_rss_mode(self, capsys):
        code = main(["simulate", "--cores", "2", "--mode", "rss", "--duration-ms", "5"])
        assert code == 0
        assert "reorder:" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tenants", "0", "tenants must be >= 1"),
            ("--flows", "0", "flows must be >= 1"),
            ("--service", "nope", "unknown service 'nope'"),
        ],
    )
    def test_simulate_degenerate_workload_exits_2(self, capsys, flag, value, message):
        """Regression: ``--tenants 0`` died with a ``ZeroDivisionError``
        traceback from inside ``uniform_population``, ``--flows 0`` with an
        uncaught ``ValueError``, ``--service nope`` with one raised by
        ``build()``."""
        code = main(["simulate", "--cores", "2", "--duration-ms", "5", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--duration-ms", "-5", "duration_ns must be >= 0, got -5000000"),
            ("--load", "-1", "workload load must be >= 0, got -1.0"),
        ],
    )
    def test_simulate_negative_time_or_load_exits_2(self, capsys, flag, value, message):
        """Regression: ``--duration-ms -5`` died with a ``SimulationError``
        traceback from ``run_until``; ``--load -1`` silently offered 0
        packets."""
        code = main(["simulate", "--cores", "2", "--duration-ms", "5", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_experiment_by_name(self, capsys):
        code = main(["experiment", "fig15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AZ construction" in out
        assert "[holds] fig15.cost: 50 (paper 50, measured/paper 1.000)" in out

    def test_failing_claim_exits_1(self, capsys, monkeypatch):
        from repro.core import resources

        monkeypatch.setitem(resources.NIC_MODULE_LATENCY_US, "dma", (4.17, 2.98))
        assert main(["experiment", "tab4"]) == 1
        assert "[FAILS] tab4.rx-total: 4.9" in capsys.readouterr().out

    @pytest.mark.parametrize("command, message", [
        pytest.param(command, message, id=command) for command, message in (
            ("experiment nope", "unknown experiment 'nope'; choose from tab1,"),
            ("faults nope", "unknown fault scenario 'nope'; choose from bfd-flap,"),
            ("migrate nope --quick",
             "unknown migration scenario 'nope'; choose from rebalance-hot-pod,"),
            ("sweep all", "unknown sweep 'all'; choose from tenant-scaling,"),
        )
    ])
    def test_unknown_name_exits_2(self, capsys, command, message):
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_lint_missing_path_exits_2(self, capsys, tmp_path):
        """Regression: a mistyped path linted zero files and exited 0."""
        missing = str(tmp_path / "no_such_dir")
        assert main(["lint", missing]) == 2
        captured = capsys.readouterr()
        assert repr(missing) in captured.err
        assert captured.out == ""

    def test_inventory(self, capsys):
        code = main(["inventory"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "VPC-Internet" in out

    def test_closed_pipe_exits_without_traceback(self):
        """Regression: ``python -m repro experiment fig15 | head -2`` ended
        in a ``BrokenPipeError`` traceback on stderr."""
        env = {**os.environ, "PYTHONUNBUFFERED": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (
                   str(SRC), os.environ.get("PYTHONPATH"))))}
        env.pop("REPRO_SANITIZE", None)
        # tab1 prints at once; tab3 then computes for a few hundred ms, so
        # its first line is written to the pipe after it has closed.
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "experiment", "all", "--quick"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=120) == 1
        assert err == ""

    def test_sanitized_faults_run_clean(self, capsys):
        install()
        try:
            code = main(["faults", "limiter-reset", "--quick"])
        finally:
            uninstall()
        assert code == 0
        captured = capsys.readouterr()
        assert "scenario: limiter-reset" in captured.out
        assert "sanitizer:" not in captured.out
        assert re.fullmatch(
            r"sanitizer: [1-9]\d* checks, 0 violations, [1-9]\d* events traced\n",
            captured.err,
        )
        assert get_sanitizer() is None

    @pytest.mark.parametrize("argv", [
        ["faults", "limiter-reset", "--quick"],
        ["simulate", "--cores", "2", "--duration-ms", "5"],
    ], ids=" ".join)
    def test_sanitizer_violation_exits_1_with_trace(self, capsys, argv):
        """Regression: only the deleted ``sanitize`` command caught a
        violation; ``simulate`` died with a traceback."""
        install(_FailsClockCheck())
        try:
            code = main(argv)
        finally:
            uninstall()
        assert code == 1
        err = capsys.readouterr().err
        assert "[simtime-monotonicity]" in err
        assert "recent events (oldest first):" in err

    def test_faults_without_sanitizer_prints_no_summary(self, capsys):
        code = main(["faults", "limiter-reset", "--quick"])
        assert code == 0
        captured = capsys.readouterr()
        assert "scenario: limiter-reset" in captured.out
        assert "sanitizer:" not in captured.err
