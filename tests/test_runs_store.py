"""Durable run store tests: atomic writes, staleness, and the query layer.

The store's one correctness key is the spec fingerprint: a cached shard
result is served iff its recorded hash matches the shard the sweep wants
to run *now*.  Everything here pins that contract -- torn files, schema
drift and hash mismatches all collapse to "run it again", never to a
stale result leaking into a merged artifact.
"""

import json
import os
from pathlib import Path

import pytest

from repro.fleet import build_sweep
from repro.runs import (
    MERGED_NAME,
    RunStore,
    RunStoreError,
    atomic_write_json,
    atomic_write_text,
    canonical_bytes,
    read_json,
    spec_fingerprint,
)
from repro.runs.query import (
    classify_artifact,
    compare_rows,
    list_rows,
    resolve_operand,
    show_rows,
)
from repro.runs.store import write_checkpoint_file

REPO = Path(__file__).parent.parent
TRAJECTORY = [
    str(REPO / "benchmarks" / "trajectory" / name)
    for name in ("BENCH_16.json", "BENCH_17.json")
]
GOLDEN_SWEEP = str(REPO / "tests" / "golden" / "SWEEP_tenant_scaling_quick.json")


@pytest.fixture
def shards():
    return build_sweep("seed-replication", quick=True, seed=42)


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "RUNS"))


def _fake_result(index, axes):
    return {
        "index": index,
        "axes": dict(axes),
        "report": {
            "scenario": "fake",
            "seed": 1,
            "duration_ns": 10,
            "sim_ns": 10,
            "events": 3,
            "pods": {},
        },
    }


class TestAtomicWrites:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(str(path), {"a": 1})
        assert read_json(str(path)) == {"a": 1}
        assert path.read_text().endswith("\n")

    def test_no_tmp_litter_on_success(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.json"), "{}")
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["out.json"]

    def test_failure_keeps_previous_content(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(str(path), "old")
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert path.read_text() == "old"
        assert [entry.name for entry in tmp_path.iterdir()] == ["artifact.json"]

    def test_read_json_missing_is_none(self, tmp_path):
        assert read_json(str(tmp_path / "absent.json")) is None

    def test_read_json_torn_is_none(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema_version": 1, "result":')
        assert read_json(str(path)) is None

    def test_canonical_bytes_is_order_insensitive(self):
        assert canonical_bytes({"b": 1, "a": 2}) == canonical_bytes({"a": 2, "b": 1})


class TestFingerprint:
    def test_stable_across_calls(self, shards):
        assert spec_fingerprint(shards[0].spec) == spec_fingerprint(shards[0].spec)

    def test_seed_is_covered(self, shards):
        other = build_sweep("seed-replication", quick=True, seed=43)
        assert spec_fingerprint(shards[0].spec) != spec_fingerprint(other[0].spec)

    def test_distinct_shards_distinct_hashes(self, shards):
        hashes = {spec_fingerprint(shard.spec) for shard in shards}
        assert len(hashes) == len(shards)


class TestRunStore:
    def test_create_writes_manifest(self, store, shards):
        run = store.create("seed-replication", 42, shards, run_id="r1", quick=True)
        manifest = read_json(os.path.join(store.root, "r1", "manifest.json"))
        assert manifest["sweep"] == "seed-replication"
        assert manifest["seed"] == 42
        assert manifest["quick"] is True
        assert [entry["index"] for entry in manifest["shards"]] == [0, 1, 2, 3]
        assert manifest == run.manifest

    def test_bad_run_id_rejected(self, store, shards):
        for bad in ("../escape", "", ".hidden/../..", "a b", "-"):
            with pytest.raises(RunStoreError, match="bad run id"):
                store.create("s", 1, shards, run_id=bad)

    def test_open_unknown_run_names_known_ones(self, store, shards):
        store.create("s", 1, shards, run_id="exists")
        with pytest.raises(RunStoreError, match="known runs: exists"):
            store.open("typo")

    def test_resume_requires_existing_run(self, store, shards):
        with pytest.raises(RunStoreError, match="unknown run id"):
            store.resume("never-created", "s", 1, shards)

    def test_run_ids_skip_directories_without_manifest(self, store, shards):
        store.create("s", 1, shards, run_id="real")
        os.makedirs(os.path.join(store.root, "junk"))
        assert store.run_ids() == ["real"]

    def test_run_ids_empty_when_root_missing(self, store):
        assert store.run_ids() == []

    def test_default_run_id_dedupes(self, store, shards):
        first = store.default_run_id("sweep")
        store.create("sweep", 1, shards, run_id=first)
        second = store.default_run_id("sweep")
        assert first != second


class TestShardCache:
    def test_record_then_load(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        fingerprint = spec_fingerprint(shards[0].spec)
        result = _fake_result(0, shards[0].axes)
        run.record_shard(0, fingerprint, result)
        assert run.load_shard(0, fingerprint) == result
        assert run.completed_indices() == [0]

    def test_missing_shard_is_none(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        assert run.load_shard(0, spec_fingerprint(shards[0].spec)) is None
        assert run.completed_indices() == []

    def test_torn_shard_is_none(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        with open(run.shard_path(0), "w", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "resu')
        assert run.load_shard(0, spec_fingerprint(shards[0].spec)) is None

    def test_hash_mismatch_is_none(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        run.record_shard(0, "old-fingerprint", _fake_result(0, shards[0].axes))
        assert run.load_shard(0, spec_fingerprint(shards[0].spec)) is None

    def test_schema_drift_is_none(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        fingerprint = spec_fingerprint(shards[0].spec)
        atomic_write_json(run.shard_path(0), {
            "schema_version": 999,
            "spec_hash": fingerprint,
            "result": _fake_result(0, shards[0].axes),
        })
        assert run.load_shard(0, fingerprint) is None

    def test_result_without_report_is_none(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        fingerprint = spec_fingerprint(shards[0].spec)
        atomic_write_json(run.shard_path(0), {
            "schema_version": 1,
            "spec_hash": fingerprint,
            "result": {"index": 0, "axes": {}},
        })
        assert run.load_shard(0, fingerprint) is None

    def test_record_shard_discards_checkpoint(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        fingerprint = spec_fingerprint(shards[0].spec)
        atomic_write_json(run.checkpoint_path(0), {
            "schema_version": 1,
            "spec_hash": fingerprint,
            "checkpoint": {"taken_ns": 5},
        })
        assert run.load_checkpoint(0, fingerprint) == {"taken_ns": 5}
        run.record_shard(0, fingerprint, _fake_result(0, shards[0].axes))
        assert not os.path.exists(run.checkpoint_path(0))
        assert run.load_checkpoint(0, fingerprint) is None

    def test_written_checkpoint_round_trips(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        fingerprint = spec_fingerprint(shards[0].spec)
        write_checkpoint_file(run.checkpoint_path(0), fingerprint, {"taken_ns": 5})
        assert run.load_checkpoint(0, fingerprint) == {"taken_ns": 5}
        assert run.load_checkpoint(0, "another-spec") is None
        assert read_json(run.checkpoint_path(0)) == {
            "schema_version": 1,
            "spec_hash": fingerprint,
            "checkpoint": {"taken_ns": 5},
        }

    def test_stale_checkpoint_is_none(self, store, shards):
        run = store.create("s", 1, shards, run_id="r")
        atomic_write_json(run.checkpoint_path(0), {
            "schema_version": 1,
            "spec_hash": "old",
            "checkpoint": {"taken_ns": 5},
        })
        assert run.load_checkpoint(0, spec_fingerprint(shards[0].spec)) is None


class TestQueryLayer:
    def test_list_rows_counts_completion(self, store, shards):
        run = store.create("seed-replication", 42, shards, run_id="r", quick=True)
        run.record_shard(
            0, spec_fingerprint(shards[0].spec), _fake_result(0, shards[0].axes)
        )
        rows = list_rows(store)
        assert rows == [{
            "run": "r",
            "sweep": "seed-replication",
            "seed": 42,
            "quick": "yes",
            "shards": "1/4",
            "merged": "no",
        }]
        run.write_merged(json.dumps({"sweep": "seed-replication", "merged": {}}))
        assert list_rows(store)[0]["merged"] == "yes"

    def test_show_rows_marks_pending(self, store, shards):
        run = store.create("seed-replication", 42, shards, run_id="r")
        run.record_shard(
            1, spec_fingerprint(shards[1].spec), _fake_result(1, shards[1].axes)
        )
        _run, rows = show_rows(store, "r")
        assert [row["status"] for row in rows] == [
            "pending", "done", "pending", "pending",
        ]
        assert rows[0]["shard"] == 0
        assert rows[1]["packets"] == 0

    def test_classify_artifact(self):
        assert classify_artifact({"sweep": "s", "merged": {}}) == "sweep"
        assert classify_artifact({"schema": 1, "workloads": {}}) == "bench"
        assert classify_artifact({"scenarios": {}}) is None
        assert classify_artifact({"other": 1}) is None
        assert classify_artifact("not a dict") is None

    def test_resolve_operand_run_without_merged(self, store, shards):
        store.create("s", 1, shards, run_id="r")
        with pytest.raises(RunStoreError, match=MERGED_NAME):
            resolve_operand("r", store)

    def test_resolve_operand_unreadable(self, store, tmp_path):
        with pytest.raises(RunStoreError, match="neither a run id"):
            resolve_operand(str(tmp_path / "absent.json"), store)

    def test_resolve_operand_unclassifiable(self, store, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"not": "an artifact"}')
        with pytest.raises(
            RunStoreError, match="not a SWEEP or BENCH.*'schema'.*'workloads'"
        ):
            resolve_operand(str(path), store)

    def test_compare_rows_renders_the_committed_trajectory(self, store):
        rows = compare_rows(TRAJECTORY, store)
        assert len(rows) == 8
        assert {row["kind"] for row in rows} == {"bench"}
        for path in TRAJECTORY:
            payload = read_json(path)
            metrics = payload["workloads"]["fleet-build-1m"]["untraced"]["metrics"]
            (row,) = [
                row for row in rows
                if row["source"] == os.path.basename(path)
                and row["name"] == "fleet-build-1m"
            ]
            assert row["commit"] == payload["commit"][:7]
            for key in ("wall_s", "pkts_per_s", "peak_rss_mb", "setup_s",
                        "sim_delivered_frac"):
                assert row[key] == metrics[key]

    def test_committed_trajectory_never_changes_simulated_behaviour(self):
        """A gain-claiming PR may change host numbers only: between every
        consecutive pair of committed BENCH files each workload's report
        bytes and delivered fraction are the same."""
        directory = REPO / "benchmarks" / "trajectory"
        series = sorted(
            directory.glob("BENCH_*.json"), key=lambda path: int(path.stem[6:])
        )
        assert [str(path) for path in series[:2]] == TRAJECTORY
        for before, after in zip(series, series[1:]):
            old, new = read_json(str(before)), read_json(str(after))
            assert sorted(old["workloads"]) == sorted(new["workloads"])
            for name, entry in new["workloads"].items():
                was = old["workloads"][name]["untraced"]
                now = entry["untraced"]
                where = f"{before.name} -> {after.name}: {name}"
                assert now["sha256"] == was["sha256"], where
                assert (now["metrics"]["sim_delivered_frac"]
                        == was["metrics"]["sim_delivered_frac"]), where

    def test_compare_rows_mixes_sweep_and_bench_operands(self, store):
        from repro.experiments.common import format_table

        rows = compare_rows([GOLDEN_SWEEP, TRAJECTORY[1]], store)
        assert [row["kind"] for row in rows] == ["sweep"] + ["bench"] * 4
        table = format_table(rows)
        assert "tenant-scaling" in table and "fleet-build-1m" in table
