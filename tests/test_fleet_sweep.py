"""Fleet sweep engine tests.

The headline invariant: the merged sweep artifact is **byte-identical**
whether the shards ran on 1 worker or 4.  Everything else here guards
the machinery that invariant leans on -- injective shard seeding
(hypothesis-checked), submission-order merging, and the CLI wiring.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import SWEEPS, build_parser, main
from repro.fleet import (
    MAX_SHARDS,
    build_sweep,
    default_workers,
    expand_grid,
    merge_run_reports,
    replicate,
    run_shard,
    run_sweep,
    shard_seed,
    sweep_names,
    sweep_to_json,
)
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim.units import MS


GOLDEN = Path(__file__).parent / "golden" / "SWEEP_tenant_scaling_quick.json"


def _tiny_spec(seed=5, tenants=4):
    return ScenarioSpec(
        name="tiny",
        pods=(PodSpec(name="pod", data_cores=2, per_core_pps=100_000),),
        workload=WorkloadSpec(flows=8, tenants=tenants, load=0.5),
        duration_ns=5 * MS,
        seed=seed,
    )


class TestShardSeed:
    @given(
        base=st.integers(min_value=0, max_value=(1 << 64) - 1),
        first=st.integers(min_value=0, max_value=MAX_SHARDS - 1),
        second=st.integers(min_value=0, max_value=MAX_SHARDS - 1),
    )
    @settings(max_examples=200)
    def test_never_collides_within_a_sweep(self, base, first, second):
        if first != second:
            assert shard_seed(base, first) != shard_seed(base, second)

    @given(
        base=st.integers(min_value=0, max_value=(1 << 64) - 1),
        index=st.integers(min_value=0, max_value=MAX_SHARDS - 1),
    )
    @settings(max_examples=100)
    def test_fits_in_64_bits(self, base, index):
        assert 0 <= shard_seed(base, index) < (1 << 64)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            shard_seed(1, -1)
        with pytest.raises(ValueError):
            shard_seed(1, MAX_SHARDS)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=4),
                          min_size=1, max_size=3),
           seed=st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=50, deadline=None)
    def test_grid_shards_get_distinct_seeds(self, sizes, seed):
        fields = ("workload.flows", "workload.tenants", "workload.size")
        grid = {
            field: list(range(1, count + 1))
            for field, count in zip(fields, sizes)
        }
        shards = expand_grid(_tiny_spec(), grid, seed)
        seeds = [shard.spec.seed for shard in shards]
        assert len(set(seeds)) == len(seeds)


class TestGridExpansion:
    def test_cartesian_last_axis_fastest(self):
        shards = expand_grid(
            _tiny_spec(),
            {"workload.flows": [8, 16], "workload.tenants": [1, 2, 4]},
            seed=9,
        )
        assert [s.axes for s in shards][:4] == [
            {"workload.flows": 8, "workload.tenants": 1},
            {"workload.flows": 8, "workload.tenants": 2},
            {"workload.flows": 8, "workload.tenants": 4},
            {"workload.flows": 16, "workload.tenants": 1},
        ]
        assert len(shards) == 6
        assert shards[3].spec.workload.flows == 16

    def test_empty_axes_single_shard(self):
        shards = expand_grid(_tiny_spec(), {}, seed=9)
        assert len(shards) == 1
        assert shards[0].spec.seed == shard_seed(9, 0)

    def test_replicate_varies_only_the_seed(self):
        shards = replicate(_tiny_spec(), count=3, seed=4)
        assert [s.axes for s in shards] == [
            {"replica": 0}, {"replica": 1}, {"replica": 2},
        ]
        seeds = {s.spec.seed for s in shards}
        assert len(seeds) == 3
        for shard in shards:
            stripped = shard.spec.to_dict()
            stripped["seed"] = 0
            reference = _tiny_spec().to_dict()
            reference["seed"] = 0
            assert stripped == reference


class TestMerge:
    def test_merged_totals_are_sums(self):
        reports = [
            build(_tiny_spec(seed=shard_seed(1, i))).run().report()
            for i in range(3)
        ]
        merged = merge_run_reports(reports, seed=1)
        assert merged["shards"] == 3
        assert merged["events"] == sum(r["events"] for r in reports)
        assert merged["packets"] == sum(
            p["transmitted"] for r in reports for p in r["pods"].values()
        )
        assert merged["latency"]["count"] == sum(
            p["latency"]["count"] for r in reports for p in r["pods"].values()
        )

    def test_shard_row_with_zero_pods_is_zeroed_not_indexerror(self):
        # Regression: a control-plane-only report (no pods) used to hit
        # latencies[0] and die with an IndexError while rendering rows.
        from repro.fleet.report import _shard_row

        result = {
            "index": 5,
            "axes": {"replica": 5},
            "report": {
                "scenario": "ctrl-only", "seed": 9, "duration_ns": 10,
                "sim_ns": 10, "events": 2, "pods": {},
            },
        }
        row = _shard_row(result)
        assert row["shard"] == 5
        assert row["packets"] == 0
        assert row["mean_us"] == 0.0
        assert row["p99_us"] == 0.0

    def test_run_shard_round_trips_the_wire_format(self):
        payload = {"index": 2, "axes": {"tenants": 4}, "spec": _tiny_spec().to_dict()}
        result = run_shard(payload)
        assert result["index"] == 2
        assert result["axes"] == {"tenants": 4}
        assert result["report"] == build(_tiny_spec()).run().report()


class TestWorkerInvariance:
    def test_merged_report_byte_identical_1_vs_4_workers(self):
        shards = build_sweep("tenant-scaling", quick=True, seed=42)
        serial = sweep_to_json(run_sweep("tenant-scaling", shards, workers=1))
        parallel = sweep_to_json(run_sweep("tenant-scaling", shards, workers=4))
        assert serial == parallel

    def test_quick_tenant_axis_covers_ci_floor(self):
        shards = build_sweep("tenant-scaling", quick=True)
        assert sum(s.axes["tenants"] for s in shards) >= 100_000

    def test_sweep_seeds_unique_across_builtin_sweeps(self):
        for name in sweep_names():
            shards = build_sweep(name, quick=True)
            seeds = [s.spec.seed for s in shards]
            assert len(set(seeds)) == len(seeds), name

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            build_sweep("nope")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            run_sweep("empty", [])

    def test_default_workers_sane(self):
        assert 1 <= default_workers() <= 8


class TestSweepCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "tenant-scaling"])
        assert args.workers == 1
        assert args.seed == 42
        assert args.output == "SWEEP_repro.json"
        assert not args.quick
        assert args.runs_dir == "RUNS"
        assert args.run_id is None
        assert args.resume is None

    def test_names_synced_with_fleet_registry(self):
        assert SWEEPS == sweep_names()

    def test_unknown_sweep_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "nope"])

    def test_quick_tenant_scaling_matches_committed_golden(self, tmp_path):
        """The disabled-telemetry artifact, byte for byte: every change
        that claims "reports byte-identical" is held to this file."""
        output = tmp_path / "sweep.json"
        assert main([
            "sweep", "tenant-scaling", "--quick",
            "--runs-dir", str(tmp_path / "RUNS"), "--output", str(output),
        ]) == 0
        assert output.read_bytes() == GOLDEN.read_bytes()

    def test_end_to_end_artifact(self, tmp_path, capsys):
        output = tmp_path / "sweep.json"
        code = main([
            "sweep", "seed-replication", "--quick", "--workers", "2",
            "--output", str(output), "--runs-dir", str(tmp_path / "RUNS"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep seed-replication" in out
        artifact = json.loads(output.read_text())
        assert artifact["sweep"] == "seed-replication"
        assert len(artifact["shards"]) == 4
        assert artifact["merged"]["packets"] > 0
        # No timing/host leakage: the artifact is a function of (spec, seed).
        assert "wall" not in output.read_text()
        assert "host" not in artifact
