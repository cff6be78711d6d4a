"""CLI tests."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
DOC_COMMAND = re.compile(r"^\s*(?:[A-Z_]+=\S+\s+)*python3? -m repro\s+(.*)$")


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

    def test_sanitize_options(self):
        args = build_parser().parse_args(
            ["sanitize", "chaos", "--quick", "--seed", "7"]
        )
        assert (args.scenario, args.quick, args.seed) == ("chaos", True, 7)

    def test_sanitize_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sanitize", "nope"])

    def test_bench_is_not_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_every_documented_command_parses(self):
        """Regression: README advertised ``simulate steady-state-plb``, which
        argparse rejects (``simulate`` takes no positional)."""
        commands = _documented_commands()
        assert len(commands) >= 30
        parser = build_parser()
        rejected = []
        for where, argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                rejected.append(f"{where}: {' '.join(argv)}")
        assert rejected == []


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
        "flag, message",
        [("--tenants", "tenants must be >= 1"), ("--flows", "flows must be >= 1")],
    )
    def test_simulate_degenerate_workload_exits_2(self, capsys, flag, message):
        """Regression: ``--tenants 0`` died with a ``ZeroDivisionError``
        traceback from inside ``uniform_population``, ``--flows 0`` with an
        uncaught ``ValueError``."""
        code = main(["simulate", "--cores", "2", "--duration-ms", "5", flag, "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_experiment_by_name(self, capsys):
        code = main(["experiment", "fig15"])
        assert code == 0
        assert "AZ construction" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "nope"])
        assert code == 1
        assert "unknown experiment" in capsys.readouterr().out

    def test_inventory(self, capsys):
        code = main(["inventory"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "VPC-Internet" in out

    def test_sanitize_scenario_runs_clean(self, capsys):
        from repro.analysis.sanitizer import get_sanitizer

        code = main(["sanitize", "limiter-reset", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario: limiter-reset" in out
        assert "0 violations" in out
        # cmd_sanitize must uninstall on the way out.
        assert get_sanitizer() is None

    def test_faults_without_sanitizer_prints_no_summary(self, capsys):
        code = main(["faults", "limiter-reset", "--quick"])
        assert code == 0
        captured = capsys.readouterr()
        assert "scenario: limiter-reset" in captured.out
        assert "sanitizer:" not in captured.err
