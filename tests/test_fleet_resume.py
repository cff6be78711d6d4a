"""Kill-and-resume tests: the resumed merge is byte-identical.

The durable-run contract: a sweep killed partway resumes with completed
shards served from disk and merges to **exactly** the bytes an
uninterrupted run writes.  The "kill" here is literal file removal from
the run directory -- the same state a SIGKILL mid-shard leaves behind
(completed shards durable, the in-flight one absent or torn).

The sweep is simulated once per module (:func:`baseline`); every
"crashy" run is a copy of that run directory, re-anchored under its own
id, with shard files then deleted or torn.
"""

import json
import os
import shutil
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.fleet import ShardFailure, pool_map, run_shard, run_sweep, sweep_to_json
from repro.fleet.sweeps import build_sweep
from repro.packet.flows import FlowKey
from repro.runs import RunStore, spec_fingerprint

SWEEP = "seed-replication"


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "RUNS"))


@pytest.fixture
def shards():
    return build_sweep(SWEEP, quick=True, seed=42)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted CLI run: its run directory, artifact and bytes.

    Shared and read-only -- tests that damage a run work on a
    :func:`_copy_of` it.
    """
    root = tmp_path_factory.mktemp("baseline")
    runs_dir, output = str(root / "RUNS"), root / "full.json"
    assert main([
        "sweep", SWEEP, "--quick", "--runs-dir", runs_dir,
        "--run-id", "full", "--output", str(output),
    ]) == 0
    return SimpleNamespace(
        runs_dir=runs_dir, run_id="full", output=output, text=output.read_text(),
    )


def _copy_of(baseline, runs_dir, run_id):
    """A finished run under ``run_id`` in ``runs_dir``: the baseline's files."""
    shutil.copytree(
        os.path.join(baseline.runs_dir, baseline.run_id),
        os.path.join(runs_dir, run_id),
    )


def _resume(store, shards, run_id, seed=42):
    return store.resume(run_id, SWEEP, seed, shards, quick=True)


class TestKillAndResume:
    def test_resumed_merge_byte_identical(self, baseline, store, shards):
        _copy_of(baseline, store.root, "crashy")
        crashy = _resume(store, shards, "crashy")
        # "Kill": drop two completed shards, as if the process died
        # before writing them.
        os.unlink(crashy.shard_path(1))
        os.unlink(crashy.shard_path(3))
        assert crashy.completed_indices() == [0, 2]

        resumed = _resume(store, shards, "crashy")
        report = run_sweep(SWEEP, shards, workers=1, seed=42, run=resumed)
        assert report.cached_shards == 2
        assert sweep_to_json(report) == baseline.text

    def test_torn_shard_file_reruns_that_shard(self, baseline, store, shards):
        _copy_of(baseline, store.root, "torn")
        crashy = _resume(store, shards, "torn")
        with open(crashy.shard_path(2), "w", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "result": {"trunc')

        report = run_sweep(SWEEP, shards, workers=1, seed=42, run=crashy)
        assert report.cached_shards == 3
        assert sweep_to_json(report) == baseline.text

    def test_untouched_resume_is_all_cache(self, baseline, store, shards):
        _copy_of(baseline, store.root, "done")
        run = _resume(store, shards, "done")
        report = run_sweep(SWEEP, shards, workers=1, seed=42, run=run)
        assert report.cached_shards == len(shards)
        assert sweep_to_json(report) == baseline.text

    def test_stale_manifest_forces_rerun(self, baseline, store):
        """Changing the sweep seed invalidates every cached shard."""
        _copy_of(baseline, store.root, "r")
        reseeded = build_sweep(SWEEP, quick=True, seed=43)
        resumed = _resume(store, reseeded, "r", seed=43)
        assert resumed.completed_indices() == []
        report = run_sweep(SWEEP, reseeded, workers=1, seed=43, run=resumed)
        assert report.cached_shards == 0

    def test_cache_is_ignored_without_a_run(self, shards):
        baseline = sweep_to_json(run_sweep(SWEEP, shards, workers=1, seed=42))
        assert json.loads(baseline)["sweep"] == SWEEP


def _fails_at_zero(payload):
    if payload["index"] == 0:
        raise RuntimeError("boom")
    return {"index": payload["index"]}


def _exits_at_one(payload):
    """Shard 1's worker dies without writing a result."""
    if payload["index"] == 1:
        os._exit(3)
    return {"index": payload["index"]}


def _flow_key_at_one(payload):
    """Shard 1 returns live state that ``marshal`` refuses."""
    if payload["index"] == 1:
        return {"index": 1, "key": FlowKey(1, 2, 3, 4, 17)}
    return {"index": payload["index"]}


class TestShardFailureNaming:
    def test_inline_failure_names_shard_and_axes(self):
        payload = {
            "index": 3,
            "axes": {"workload.tenants": 7},
            "spec": {"name": "broken", "no_such_field": 1},
        }
        with pytest.raises(ShardFailure, match=r"shard 3 workload.tenants=7"):
            pool_map(run_shard, [payload], workers=1)

    def test_pool_failure_names_shard_and_carries_traceback(self):
        payloads = [
            {
                "index": index,
                "axes": {"replica": index},
                "spec": {"name": "broken", "no_such_field": 1},
            }
            for index in range(2)
        ]
        with pytest.raises(ShardFailure) as excinfo:
            pool_map(run_shard, payloads, workers=2)
        message = str(excinfo.value)
        assert "shard 0 replica=0" in message
        assert "worker traceback" in message

    def test_pool_failure_keeps_every_result_that_landed(self):
        """What ``sweep`` prints on failure -- "completed shards are
        saved" -- holds: the other shards run on and are recorded."""
        payloads = [{"index": index, "axes": {}} for index in range(3)]
        recorded = []
        with pytest.raises(ShardFailure, match="shard 0 failed with RuntimeError: boom"):
            pool_map(
                _fails_at_zero, payloads, workers=2,
                on_result=lambda payload, result: recorded.append(result["index"]),
            )
        assert sorted(recorded) == [1, 2]

    def test_a_worker_that_exits_without_a_result_fails_its_shard(self):
        payloads = [{"index": index, "axes": {"replica": index}} for index in range(3)]
        recorded = []
        with pytest.raises(ShardFailure, match=(
            r"^shard 1 replica=1 failed with no result "
            r"\(its worker exited with status 3\)$"
        )):
            pool_map(
                _exits_at_one, payloads, workers=2,
                on_result=lambda payload, result: recorded.append(result["index"]),
            )
        assert sorted(recorded) == [0, 2]
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_result_marshal_refuses_fails_its_shard(self):
        payloads = [{"index": index, "axes": {"replica": index}} for index in range(2)]
        with pytest.raises(ShardFailure) as excinfo:
            pool_map(_flow_key_at_one, payloads, workers=2)
        message = str(excinfo.value)
        assert message.startswith(
            "shard 1 replica=1 failed with ValueError: unmarshallable object"
        )
        assert "worker traceback" in message
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSweepCliResume:
    def test_end_to_end_resume_byte_identical(self, baseline, tmp_path, capsys):
        runs_dir = str(tmp_path / "RUNS")
        resumed = tmp_path / "resumed.json"
        _copy_of(baseline, runs_dir, "crashy")
        os.unlink(os.path.join(runs_dir, "crashy", "shard-0001.json"))
        os.unlink(os.path.join(runs_dir, "crashy", "shard-0003.json"))

        code = main([
            "sweep", SWEEP, "--quick", "--runs-dir", runs_dir,
            "--resume", "crashy", "--output", str(resumed),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run crashy: 2 cached + 2 simulated shard(s)" in out
        assert baseline.output.read_bytes() == resumed.read_bytes()
        # The run directory's merged artifact is the same bytes too.
        merged = os.path.join(runs_dir, "crashy", "SWEEP_repro.json")
        with open(merged, "rb") as handle:
            assert handle.read() == baseline.output.read_bytes()

    def test_resume_unknown_run_exits_2(self, tmp_path, capsys):
        code = main([
            "sweep", SWEEP, "--quick",
            "--runs-dir", str(tmp_path / "RUNS"),
            "--resume", "no-such-run",
            "--output", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert "unknown run id" in capsys.readouterr().err

    def test_bad_run_id_exits_2(self, tmp_path, capsys):
        code = main([
            "sweep", SWEEP, "--quick",
            "--runs-dir", str(tmp_path / "RUNS"),
            "--run-id", "../escape",
            "--output", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert "bad run id" in capsys.readouterr().err


class TestRunsCli:
    @pytest.fixture
    def populated(self, baseline):
        """The shared finished run; these tests only read it."""
        return baseline.runs_dir, baseline.output

    def test_list(self, populated, capsys):
        runs_dir, _output = populated
        capsys.readouterr()
        assert main(["runs", "--runs-dir", runs_dir, "list"]) == 0
        out = capsys.readouterr().out
        assert "full" in out
        assert "4/4" in out

    def test_list_empty_store(self, tmp_path, capsys):
        assert main(["runs", "--runs-dir", str(tmp_path / "none"), "list"]) == 0
        assert "no runs under" in capsys.readouterr().out

    def test_show(self, populated, capsys):
        runs_dir, _output = populated
        capsys.readouterr()
        assert main(["runs", "--runs-dir", runs_dir, "show", "full"]) == 0
        out = capsys.readouterr().out
        assert f"run full: sweep '{SWEEP}'" in out
        assert out.count("done") == 4

    def test_show_unknown_exits_2(self, populated, capsys):
        runs_dir, _output = populated
        assert main(["runs", "--runs-dir", runs_dir, "show", "nope"]) == 2
        assert "unknown run id" in capsys.readouterr().err

    def test_compare_run_and_artifact(self, populated, capsys):
        runs_dir, output = populated
        capsys.readouterr()
        code = main([
            "runs", "--runs-dir", runs_dir, "compare", "full", str(output),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Two sweep rows -- the run id and the artifact path -- with
        # identical metric columns, since they hold the same bytes.
        lines = [line for line in out.splitlines() if "sweep" in line and SWEEP in line]
        assert len(lines) == 2
        first = lines[0].split()[1:]   # drop the source column
        second = lines[1].split()[1:]
        assert first == second

    def test_compare_timeseries_renders_window_rows(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "RUNS")
        output = tmp_path / "armed.json"
        assert main([
            "sweep", SWEEP, "--quick", "--timeseries-every-ms", "5",
            "--runs-dir", runs_dir, "--output", str(output),
        ]) == 0
        capsys.readouterr()
        assert main([
            "runs", "--runs-dir", runs_dir, "compare", "--timeseries", str(output),
        ]) == 0
        header, _rule, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[:4] == ["source", "shard", "window", "t_ms"]
        assert {row.split()[1] for row in rows} == {"0", "1", "2", "3"}

    def test_compare_rejects_junk_exits_2(self, populated, tmp_path, capsys):
        runs_dir, _output = populated
        junk = tmp_path / "junk.json"
        junk.write_text('{"neither": true}')
        assert main(["runs", "--runs-dir", runs_dir, "compare", str(junk)]) == 2
        assert "not a SWEEP or BENCH" in capsys.readouterr().err


class TestMidShardCheckpointWiring:
    def test_run_shard_persists_and_resumes_from_checkpoint(self, tmp_path, store):
        """A shard killed mid-run restarts from its persisted checkpoint
        and reports byte-identically to an uninterrupted shard."""
        from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec
        from repro.sim.units import MS

        spec = ScenarioSpec(
            name="ckpt-wire",
            pods=(PodSpec(name="pod", data_cores=2, per_core_pps=100_000),),
            # Light load: quiescent instants need idle gaps (DESIGN.md).
            workload=WorkloadSpec(flows=8, tenants=4, load=0.1),
            duration_ns=5 * MS,
            seed=7,
            checkpoint_every_ns=1 * MS,
        )
        fingerprint = spec_fingerprint(spec)
        payload = {
            "index": 0, "axes": {}, "spec": spec.to_dict(),
            "spec_hash": fingerprint,
        }
        baseline = run_shard(dict(payload))

        run = store.create("ckpt", 7, [], run_id="ckpt-run")
        ckpt_path = run.checkpoint_path(0)
        run_shard(dict(payload, checkpoint_path=ckpt_path))
        snapshot = run.load_checkpoint(0, fingerprint)
        assert snapshot is not None
        assert snapshot["taken_ns"] > 0

        resumed = run_shard(dict(payload, resume_checkpoint=snapshot))
        assert resumed == baseline

    def test_checkpoint_of_another_schema_reruns_its_shard(self, store):
        """A run-store checkpoint this build cannot restore is stale, as a
        torn one is: ``sweep --resume`` reruns its shard from zero instead
        of failing it, and merges to a cold run's bytes."""
        from repro.controlplane.snapshot import CHECKPOINT_SCHEMA_VERSION
        from repro.fleet import ShardSpec
        from repro.runs.store import write_checkpoint_file
        from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec
        from repro.sim.units import MS

        spec = ScenarioSpec(
            name="ckpt-schema",
            pods=(PodSpec(name="pod", data_cores=2, per_core_pps=100_000),),
            workload=WorkloadSpec(flows=8, tenants=4, load=0.1),
            duration_ns=5 * MS,
            seed=7,
            checkpoint_every_ns=1 * MS,
        )
        shards = [ShardSpec(0, {}, spec)]
        cold = sweep_to_json(run_sweep("ckpt", shards, workers=1, seed=7))
        run = store.create("ckpt", 7, shards, run_id="old-schema")
        run_shard(dict(shards[0].to_dict(), checkpoint_path=run.checkpoint_path(0)))
        fingerprint = spec_fingerprint(spec)
        snapshot = run.load_checkpoint(0, fingerprint)
        assert snapshot is not None
        write_checkpoint_file(run.checkpoint_path(0), fingerprint,
                              dict(snapshot, schema_version=CHECKPOINT_SCHEMA_VERSION + 1))

        report = run_sweep("ckpt", shards, workers=1, seed=7, run=run)
        assert sweep_to_json(report) == cold
