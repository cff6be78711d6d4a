"""The benchmark keeps its contract: ``pytest benchmarks/perf`` (~30 s).

Drives ``run.py --smoke`` -- the same code at tiny constants -- and
checks what it prints against what ``BENCHMARK.json`` declares.  Not
part of the tier-1 ``testpaths``.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*arguments, check=True):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    if check:
        assert done.returncode == 0, done.stdout
    return done


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    _run("--out", str(out))
    return json.loads(out.read_text())


def test_declaration_is_within_the_schema(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_every_workload_reports_every_declared_metric(declared, smoke):
    assert list(smoke["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, runs in smoke["workloads"].items():
        for kind, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            run = runs[kind]
            assert run["failed"] == [], (name, kind)
            assert run["attempted"] >= 1
            for metric in declared[section]:
                value = run["metrics"][metric["name"]]
                assert isinstance(value, (int, float)), (name, metric["name"])
                assert math.isfinite(value), (name, metric["name"])
        for metric in declared["end_to_end"]:
            assert runs["untraced"]["metrics"][metric["name"]] > 0


def test_workloads_separate_the_layers(smoke):
    traced = {
        name: runs["traced"]["metrics"] for name, runs in smoke["workloads"].items()
    }
    for name, metrics in traced.items():
        assert (metrics["topology.self_frac"] > 0) == (name == "az-sweep")
        assert (metrics["core.ratelimit.self_frac"] > 0) == (
            name in ("pod-burst-limited", "fleet-build-1m")
        )
        assert (metrics["telemetry.windows"] > 0) == (name == "pod-burst-limited")
    assert traced["pod-steady"]["core.plb.best_effort_frac"] == 0
    assert traced["pod-burst-limited"]["core.plb.hol_events"] > 0
    assert traced["az-sweep"]["topology.dpu_fast_frac"] > 0


def test_spans_cover_the_span_repetition(smoke):
    for name, runs in smoke["workloads"].items():
        run = runs["traced"]
        assert run["spans"][0]["name"] == "repetition"
        assert run["span_sum_s"] <= run["span_wall_s"]
        assert run["span_sum_s"] >= 0.9 * run["span_wall_s"], name


def test_simulated_results_repeat_exactly(smoke, tmp_path):
    out = tmp_path / "again.json"
    _run("--trace", "0", "--out", str(out))
    again = json.loads(out.read_text())
    for name, runs in smoke["workloads"].items():
        for key in ("sha256", "sim"):
            assert runs["untraced"][key] == again["workloads"][name]["untraced"][key]
        assert runs["traced"]["sha256"] == runs["untraced"]["sha256"]


def test_result_object_and_corrupted_report(declared):
    good = _run("--workload", "pod-steady", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    result = json.loads(good.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(set(entry) == {"value", "unit"} for entry in result["metrics"].values())

    bad = _run("--workload", "pod-steady", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--corrupt", check=False)
    assert bad.returncode != 0
    result = json.loads(bad.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_sanitized():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, env=dict(os.environ, REPRO_SANITIZE="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0 and "REPRO_SANITIZE" in done.stderr
