"""Bench harness tests: schema, baseline comparison, CLI exit codes.

CLI tests monkeypatch the scenario table with fast fakes so the suite
does not pay for real simulation runs; one smoke test runs a real quick
scenario end-to-end.
"""

import json

import pytest

import repro.perf.harness as harness
from repro.cli import build_parser, main
from repro.perf import (
    SCHEMA_VERSION,
    compare_to_baseline,
    parse_max_regress,
    run_bench,
)
from repro.perf.scenarios import SCENARIOS, steady_state_plb


def _report(**scenarios):
    return {"schema_version": SCHEMA_VERSION, "scenarios": scenarios}


FAKE_SCENARIOS = (
    ("fake-fast", lambda quick: {"events": 1000, "sim_ns": 1_000_000, "packets": 100}),
    ("fake-suite", lambda quick: {"events": None, "sim_ns": None, "packets": 0}),
)


@pytest.fixture
def fake_scenarios(monkeypatch):
    monkeypatch.setattr(harness, "SCENARIOS", FAKE_SCENARIOS)


class TestParseMaxRegress:
    def test_percent_suffix(self):
        assert parse_max_regress("10%") == pytest.approx(0.10)

    def test_fraction(self):
        assert parse_max_regress("0.25") == pytest.approx(0.25)

    def test_bare_number_above_one_is_percent(self):
        assert parse_max_regress("15") == pytest.approx(0.15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_max_regress("-5%")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_max_regress("fast")


class TestCompareToBaseline:
    def test_within_budget_passes(self):
        new = _report(a={"events_per_sec": 95.0})
        old = _report(a={"events_per_sec": 100.0})
        assert compare_to_baseline(new, old, 0.10) == []

    def test_throughput_drop_flagged(self):
        new = _report(a={"events_per_sec": 80.0})
        old = _report(a={"events_per_sec": 100.0})
        regressions = compare_to_baseline(new, old, 0.10)
        assert [r["scenario"] for r in regressions] == ["a"]
        assert regressions[0]["metric"] == "events_per_sec"
        assert regressions[0]["change_pct"] == pytest.approx(-20.0)

    def test_throughput_gain_never_flagged(self):
        new = _report(a={"events_per_sec": 500.0})
        old = _report(a={"events_per_sec": 100.0})
        assert compare_to_baseline(new, old, 0.10) == []

    def test_wall_pps_fallback(self):
        new = _report(a={"events_per_sec": None, "wall_pps": 50.0})
        old = _report(a={"events_per_sec": None, "wall_pps": 100.0})
        regressions = compare_to_baseline(new, old, 0.10)
        assert regressions and regressions[0]["metric"] == "wall_pps"

    def test_wall_s_fallback_flags_slowdown(self):
        new = _report(a={"events_per_sec": None, "wall_pps": None, "wall_s": 2.0})
        old = _report(a={"events_per_sec": None, "wall_pps": None, "wall_s": 1.0})
        regressions = compare_to_baseline(new, old, 0.10)
        assert regressions and regressions[0]["metric"] == "wall_s"

    def test_wall_s_speedup_passes(self):
        new = _report(a={"wall_s": 0.5})
        old = _report(a={"wall_s": 1.0})
        assert compare_to_baseline(new, old, 0.10) == []

    def test_scenario_missing_from_baseline_skipped(self):
        new = _report(brand_new={"events_per_sec": 1.0})
        old = _report(a={"events_per_sec": 100.0})
        assert compare_to_baseline(new, old, 0.10) == []

    def test_baseline_without_scenarios_raises_value_error(self):
        new = _report(a={"events_per_sec": 1.0})
        for junk in ({}, {"scenarios": None}, [], None, "text"):
            with pytest.raises(ValueError, match="re-create it"):
                compare_to_baseline(new, junk, 0.10)

    def test_baseline_entry_not_a_mapping_raises_value_error(self):
        new = _report(a={"events_per_sec": 1.0})
        old = _report(a="truncated")
        with pytest.raises(ValueError, match="'a'.*not a mapping"):
            compare_to_baseline(new, old, 0.10)

    def test_null_ridden_baseline_raises_value_error_not_type_error(self):
        # Regression: garbage baseline metrics used to reach
        # `old_value * (1.0 + ...)` and die with a TypeError.
        new = _report(a={"events_per_sec": 100.0})
        old = _report(
            a={"events_per_sec": None, "wall_pps": None, "wall_s": "fast"}
        )
        with pytest.raises(ValueError, match="'a' has no comparable metric"):
            compare_to_baseline(new, old, 0.10)

    def test_unmeasurable_scenario_is_skipped(self):
        # An aggregate suite that reports nothing measurable cannot
        # regress; it must not fail the comparison either.
        new = _report(a={"events_per_sec": None, "wall_pps": None})
        old = _report(a={"events_per_sec": 100.0})
        assert compare_to_baseline(new, old, 0.10) == []

    def test_zero_wall_s_is_a_measurement_not_a_gap(self):
        # Sub-resolution scenarios round wall_s to 0.0; that must stay
        # comparable (never flap to "missing") and a zero baseline can
        # never flag a regression or divide by zero.
        new = _report(a={"wall_s": 2e-06})
        old = _report(a={"wall_s": 0.0})
        assert compare_to_baseline(new, old, 0.10) == []
        assert compare_to_baseline(old, new, 0.10) == []

    def test_metric_null_on_baseline_side_falls_through(self):
        new = _report(a={"events_per_sec": 100.0, "wall_pps": 50.0})
        old = _report(a={"events_per_sec": None, "wall_pps": 100.0})
        regressions = compare_to_baseline(new, old, 0.10)
        assert regressions and regressions[0]["metric"] == "wall_pps"

    def test_boolean_debris_is_not_a_usable_metric(self):
        new = _report(a={"events_per_sec": True, "wall_s": 1.0})
        old = _report(a={"events_per_sec": True, "wall_s": 1.0})
        assert compare_to_baseline(new, old, 0.10) == []


class TestRunBench:
    def test_schema(self, fake_scenarios):
        report = run_bench(quick=True)
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["quick"] is True
        assert set(report["host"]) == {
            "python", "implementation", "platform", "machine", "cpu_count",
        }
        assert list(report["scenarios"]) == ["fake-fast", "fake-suite"]
        entry = report["scenarios"]["fake-fast"]
        assert set(entry) == {
            "wall_s", "events", "packets", "sim_ns",
            "events_per_sec", "sim_pps", "wall_pps",
        }
        assert entry["wall_s"] >= 0
        assert entry["events_per_sec"] > 0
        suite = report["scenarios"]["fake-suite"]
        assert suite["events_per_sec"] is None
        assert suite["wall_pps"] is None

    def test_subset_selection(self, fake_scenarios):
        report = run_bench(quick=True, names=["fake-suite"])
        assert list(report["scenarios"]) == ["fake-suite"]

    def test_unknown_scenario_rejected(self, fake_scenarios):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_bench(quick=True, names=["nope"])

    def test_real_scenario_smoke_and_determinism(self):
        first = steady_state_plb(quick=True)
        second = steady_state_plb(quick=True)
        assert first["events"] > 0
        assert first["packets"] > 0
        assert first["sim_ns"] > 0
        # Wall-clock aside, the replay must be bit-identical.
        assert first == second

    def test_scenario_names_stable(self):
        assert [name for name, _ in SCENARIOS] == [
            "steady-state-plb",
            "microburst-reorder",
            "ratelimit-churn",
            "fault-suite-quick",
        ]


class TestBenchCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.output == "BENCH_repro.json"
        assert args.baseline is None
        assert args.max_regress == "10%"
        assert not args.quick

    def test_writes_report(self, fake_scenarios, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        assert "fake-fast" in report["scenarios"]
        assert "bench (quick mode)" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, fake_scenarios, tmp_path, capsys):
        output = tmp_path / "bench.json"
        code = main([
            "bench", "--quick", "--output", str(output),
            "--baseline", str(tmp_path / "absent.json"),
        ])
        assert code == 2
        assert "baseline file not found" in capsys.readouterr().err
        # The bench must not have run: fail-fast before spending minutes.
        assert not output.exists()

    def test_baseline_pass(self, fake_scenarios, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["bench", "--quick", "--output", str(baseline)]) == 0
        output = tmp_path / "bench.json"
        # The fake scenarios take microseconds, so back-to-back wall
        # times differ by integer factors; only the pass path is under
        # test here, so the budget admits any slowdown.
        code = main([
            "bench", "--quick", "--output", str(output),
            "--baseline", str(baseline), "--max-regress", "100%",
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_baseline_regression_exits_1(self, fake_scenarios, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["bench", "--quick", "--output", str(baseline)]) == 0
        inflated = json.loads(baseline.read_text())
        inflated["scenarios"]["fake-fast"]["events_per_sec"] *= 100
        baseline.write_text(json.dumps(inflated))
        code = main([
            "bench", "--quick",
            "--output", str(tmp_path / "bench.json"),
            "--baseline", str(baseline),
        ])
        assert code == 1
        assert "regressions beyond" in capsys.readouterr().out

    def test_malformed_baseline_exits_2(self, fake_scenarios, tmp_path, capsys):
        baseline = tmp_path / "junk.json"
        baseline.write_text("{}")
        code = main([
            "bench", "--quick",
            "--output", str(tmp_path / "bench.json"),
            "--baseline", str(baseline),
        ])
        assert code == 2
        assert "baseline comparison failed" in capsys.readouterr().err

    def test_bad_max_regress_exits_2(self, fake_scenarios, tmp_path, capsys):
        code = main([
            "bench", "--quick",
            "--output", str(tmp_path / "bench.json"),
            "--max-regress", "fast",
        ])
        assert code == 2
        assert "bad --max-regress" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, fake_scenarios, tmp_path, capsys):
        code = main([
            "bench", "--quick",
            "--output", str(tmp_path / "bench.json"),
            "--scenario", "nope",
        ])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err
