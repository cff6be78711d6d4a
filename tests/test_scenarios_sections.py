"""The report's ``SECTIONS`` table: every key a run report carries has
exactly one row, each row is armed exactly when its keys appear, and a
merge of shards that together arm every row runs every row's fold."""

import pytest

from repro.fleet.report import merge_run_reports
from repro.fleet.sweeps import build_sweep
from repro.scenarios import build
from repro.scenarios.registry import SCENARIO_FACTORIES, scenario_spec
from repro.scenarios.sections import ROW, SECTIONS
from repro.sim.units import MS

RUN_NS = MS // 2


def _specs():
    specs = {name: scenario_spec(name, quick=True) for name in SCENARIO_FACTORIES}
    specs["migration"] = build_sweep("migration-replication", quick=True)[0].spec
    specs["az-telemetry"] = specs["az-steady"].with_overrides(
        overrides={"timeseries_every_ns": RUN_NS // 4}
    )
    return specs


@pytest.fixture(scope="module")
def reports():
    return {
        name: (spec, build(spec).run(RUN_NS).report())
        for name, spec in _specs().items()
    }


def test_every_report_key_has_exactly_one_row(reports):
    owned = [key for row in SECTIONS for key in row.keys]
    assert len(owned) == len(set(owned)) == len(ROW)
    for name, (spec, report) in reports.items():
        assert set(report) <= set(ROW), name
        armed = [key for row in SECTIONS if row.armed(spec) for key in row.keys]
        assert list(report) == armed, name


def test_merge_runs_every_row_fold(reports):
    shards = list(enumerate([
        reports["az-telemetry"][1], reports["migration"][1],
    ]))
    for row in SECTIONS:
        carried = any(key in report for _index, report in shards for key in row.keys)
        assert carried, row.keys
        folded = row.merge(shards)
        if row.keys == ("migration",):
            assert folded == {}
        else:
            assert folded, row.keys
    merged = merge_run_reports([report for _index, report in shards])
    assert list(merged) == [
        "shards", "packets", "events", "sim_ns_total", "latency", "counters",
        "outcomes", "timeseries", "uplink", "servers", "tiers",
    ]
    assert {window["shard"] for window in merged["timeseries"]["windows"]} == {0}
