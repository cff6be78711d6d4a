"""Fleet sweep engine tests.

The headline invariant: the merged sweep artifact is **byte-identical**
whether the shards ran on 1 worker or 4.  Everything else here guards
the machinery that invariant leans on -- injective shard seeding
(hypothesis-checked), index-order merging under longest-first dispatch
and completion-order recording, and the CLI wiring.  None of the
scheduler tests reads a clock: order is observed through files the
workers and ``on_result`` write.
"""

import gc
import json
import math
import os
import shutil
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.fleet import engine
from repro.fleet import (
    MAX_SHARDS,
    SWEEP_FACTORIES,
    ShardSpec,
    build_sweep,
    default_workers,
    merge_run_reports,
    pool_map,
    replicate,
    run_shard,
    run_sweep,
    shard_seed,
    sweep_to_json,
)
from repro.runs import RunStore
from repro.runs.store import canonical_bytes
from repro.scenarios import (
    SCENARIO_FACTORIES,
    PodSpec,
    ScenarioSpec,
    WorkloadSpec,
    build,
    scenario_spec,
)
from repro.scenarios.build import offered_packets
from repro.sim.units import MS, SECOND


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
        seeds = [shard_seed(seed, index) for index in range(math.prod(sizes))]
        assert len(set(seeds)) == len(seeds)

    def test_replicas_run_the_shard_seeds_in_index_order(self):
        shards = replicate(_tiny_spec(), count=4, seed=11)
        assert [shard.index for shard in shards] == [0, 1, 2, 3]
        assert [shard.spec.seed for shard in shards] == [
            shard_seed(11, index) for index in range(4)
        ]
        assert replicate(_tiny_spec(), count=0, seed=11) == []

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
        merged = merge_run_reports(reports)
        assert merged["shards"] == 3
        assert merged["events"] == sum(r["events"] for r in reports)
        assert merged["packets"] == sum(
            p["transmitted"] for r in reports for p in r["pods"].values()
        )
        assert merged["latency"]["count"] == sum(
            p["latency"]["count"] for r in reports for p in r["pods"].values()
        )

    def test_regrouped_shards_merge_to_the_same_bytes(self):
        """Histogram merge is exact, so the fleet headline depends only on
        which pods ran, not on which shard carried them or in what order."""
        reports = [
            build(_tiny_spec(seed=shard_seed(2, i)).with_overrides(
                overrides={"workload.load": 1.2})).run().report()
            for i in range(3)
        ]
        assert len(reports[0]["pods"]["pod"]["latency"]["buckets"]) > 1
        regrouped = [
            dict(reports[0], pods={f"{index}": report["pods"]["pod"]
                                   for index, report in enumerate(reports[:2])}),
            reports[2],
        ]

        def headline(run_reports):
            merged = merge_run_reports(run_reports)
            return canonical_bytes({key: merged[key] for key in
                                    ("packets", "latency", "counters", "outcomes")})

        expected = headline(reports)
        for order in (reports[::-1], reports[1:] + reports[:1], regrouped):
            assert headline(order) == expected
        assert (canonical_bytes(merge_run_reports(reports[::-1]))
                == canonical_bytes(merge_run_reports(reports)))

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
        for name in SWEEP_FACTORIES:
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


def _wait_for(predicate, what, timeout_s=30.0):
    """Poll ``predicate`` until true; a bounded wait that fails loudly."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"gave up waiting for {what}")
        time.sleep(0.005)


def _append_line(path, text):
    # O_APPEND: concurrent workers' lines never interleave or overwrite.
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{text}\n".encode())
    finally:
        os.close(fd)


def _lines(path):
    try:
        return Path(path).read_text().split()
    except FileNotFoundError:
        return []


#: Where ``_logged_run_shard`` logs, and how many entries it waits for;
#: set before the pool forks, so the workers inherit it.
_DISPATCH = {"log": None, "workers": 0}


def _logged_run_shard(payload):
    """``run_shard`` that logs its shard on entry, then waits until every
    worker has logged one -- so the log's first ``workers`` entries are
    the first ``workers`` shards dispatched, however the host schedules."""
    _append_line(_DISPATCH["log"], payload["index"])
    _wait_for(
        lambda: len(_lines(_DISPATCH["log"])) >= _DISPATCH["workers"],
        "every worker to pick up its first shard",
    )
    return run_shard(payload)


def _blocked_until_recorded(payload):
    """The costly payload returns only once the cheap one was recorded."""
    if payload["wait_for"] is not None:
        _wait_for(
            lambda: os.path.exists(payload["wait_for"]),
            "on_result of the cheaper payload (results held back in order?)",
        )
    return payload["id"]


def _echo(payload):
    return ("done", payload)


def _frozen_objects(payload):
    return gc.get_freeze_count()


def _source_packets(spec):
    """Rate x duration from the sources build() actually attached."""
    handle = build(spec)
    return sum(source.rate_pps for source in handle.sources) * spec.duration_ns // SECOND


class TestShardCostEstimate:
    """``offered_packets``: the spec-only cost the pool ranks shards by."""

    @pytest.mark.parametrize("name", SCENARIO_FACTORIES)
    def test_equals_what_build_hands_the_source_on_registry_scenarios(self, name):
        spec = scenario_spec(name, quick=True)
        assert offered_packets(spec) == _source_packets(spec) > 0

    @pytest.mark.parametrize("name", SWEEP_FACTORIES)
    def test_equals_what_build_hands_the_source_on_builtin_shards(self, name):
        for shard in build_sweep(name, quick=True):
            assert offered_packets(shard.spec) == _source_packets(shard.spec)

    def test_named_service_capacity_is_the_live_pods(self):
        from repro.cpu.service import standard_services

        for service in standard_services():
            spec = ScenarioSpec(
                name="named", duration_ns=1 * MS,
                pods=(PodSpec(data_cores=3, service=service),),
                workload=WorkloadSpec(load=0.37),
            )
            handle = build(spec)
            assert handle.capacity_pps() == handle.pod.expected_capacity_mpps() * 1e6
            assert handle.sources[0].rate_pps == int(handle.capacity_pps() * 0.37)

    def test_ranks_az_shards_by_server_count(self):
        for shards in (
            [ShardSpec(i, {}, scenario_spec("az-steady", servers=n))
             for i, n in enumerate((2, 4, 8))],
            build_sweep("az-scaling"),
        ):
            two, four, eight = (offered_packets(shard.spec) for shard in shards)
            assert eight > four > two > 0

    def test_monotone_in_every_input(self):
        def cost(load=0.5, rate_pps=None, duration_ns=5 * MS, data_cores=2, pods=1):
            return offered_packets(ScenarioSpec(
                name="m", duration_ns=duration_ns,
                pods=tuple(
                    PodSpec(name=f"p{i}", data_cores=data_cores, per_core_pps=100_000)
                    for i in range(pods)
                ),
                workload=WorkloadSpec(
                    load=None if rate_pps is not None else load, rate_pps=rate_pps
                ),
            ))

        assert cost(load=0.9) > cost(load=0.5)
        assert cost(rate_pps=200_000) > cost(rate_pps=100_000)
        assert cost(duration_ns=10 * MS) > cost(duration_ns=5 * MS)
        assert cost(data_cores=4) > cost(data_cores=2)
        # A flat spec's source feeds the first pod only, as in build().
        assert cost(pods=2) == cost(pods=1)

    def test_resumed_shard_costs_only_what_is_left(self):
        spec = _tiny_spec()
        assert offered_packets(spec, from_ns=4 * MS) * 5 == offered_packets(spec)
        assert offered_packets(spec, from_ns=spec.duration_ns + 1) == 0

    def test_no_workload_costs_nothing(self):
        assert offered_packets(ScenarioSpec(name="ctrl", duration_ns=MS)) == 0


class TestLongestFirstDispatch:
    def _shards(self, durations_ms):
        return [
            ShardSpec(index, {"ms": ms}, _tiny_spec().with_overrides(
                seed=shard_seed(3, index), duration_ns=ms * MS,
            ))
            for index, ms in enumerate(durations_ms)
        ]

    def test_pool_starts_the_costliest_shards_first(self, tmp_path, monkeypatch):
        log = str(tmp_path / "dispatch.log")
        monkeypatch.setitem(_DISPATCH, "log", log)
        monkeypatch.setitem(_DISPATCH, "workers", 2)
        monkeypatch.setattr("repro.fleet.engine.run_shard", _logged_run_shard)
        shards = self._shards([1, 4, 2, 3])

        report = run_sweep("lpt", shards, workers=2, seed=3)

        started = [int(index) for index in _lines(log)]
        assert sorted(started[:2]) == [1, 3]
        assert sorted(started) == [0, 1, 2, 3]
        # Dispatch order never reaches the artifact.
        assert [result["index"] for result in report.shard_results] == [0, 1, 2, 3]
        assert sweep_to_json(report) == sweep_to_json(
            run_sweep("lpt", shards, workers=1, seed=3)
        )

    @pytest.fixture
    def handed(self, monkeypatch):
        """The shard order ``run_sweep`` hands the pool (then run inline)."""
        order = []

        def spy(fn, payloads, workers, on_result=None):
            order.extend(payload["index"] for payload in payloads)
            return pool_map(fn, payloads, 1, on_result)

        monkeypatch.setattr("repro.fleet.engine.pool_map", spy)
        return order

    def test_one_worker_runs_in_shard_order(self, handed):
        run_sweep("inline", self._shards([1, 3, 2]), workers=1, seed=3)
        assert handed == [0, 1, 2]

    def test_ties_break_by_shard_index(self, handed):
        run_sweep("ties", self._shards([2, 1, 2, 1]), workers=2, seed=3)
        assert handed == [0, 2, 1, 3]

    def test_checkpointed_shard_costs_only_its_remainder(self, handed, tmp_path):
        shards = [
            ShardSpec(shard.index, shard.axes, shard.spec.with_overrides(overrides={
                # Light load: quiescent instants need idle gaps (DESIGN.md).
                "workload.load": 0.1, "checkpoint_every_ns": 1 * MS,
            }))
            for shard in self._shards([5, 4, 3])
        ]
        serial = sweep_to_json(run_sweep("ckpt", shards, workers=1, seed=3))
        run = RunStore(str(tmp_path / "RUNS")).create("ckpt", 3, shards, run_id="r")
        # "Kill" the longest shard late: only its checkpoint survives.
        payload = shards[0].to_dict()
        run_shard(dict(payload, checkpoint_path=run.checkpoint_path(0)))
        fingerprint = run.manifest["shards"][0]["spec_hash"]
        assert run.load_checkpoint(0, fingerprint)["taken_ns"] >= 3 * MS

        handed.clear()
        report = run_sweep("ckpt", shards, workers=2, seed=3, run=run)
        assert handed == [1, 2, 0]
        assert sweep_to_json(report) == serial


class TestCompletionOrderRecording:
    def test_cheap_result_is_recorded_while_the_costly_one_runs(self, tmp_path):
        marker = str(tmp_path / "cheap.recorded")
        recorded = []

        def on_result(payload, result):
            recorded.append(result)
            if payload["id"] == "cheap":
                Path(marker).touch()

        results = pool_map(
            _blocked_until_recorded,
            [{"id": "costly", "wait_for": marker}, {"id": "cheap", "wait_for": None}],
            workers=2, on_result=on_result,
        )
        assert recorded == ["cheap", "costly"]
        assert results == ["costly", "cheap"]

    @given(
        payloads=st.lists(st.integers(), max_size=6),
        workers=st.sampled_from((1, 2, 3)),
    )
    @settings(max_examples=25, deadline=None)
    def test_returns_in_given_order_and_records_each_once(self, payloads, workers):
        seen = []
        results = pool_map(
            _echo, payloads, workers,
            on_result=lambda payload, result: seen.append((payload, result)),
        )
        assert results == [("done", payload) for payload in payloads]
        assert sorted(seen) == sorted(zip(payloads, results))


class TestPoolArtifactsByteIdentical:
    """The two sweeps the issue names, on every worker count and resumed."""

    @pytest.fixture(scope="class", params=("az-scaling", "tenant-scaling"))
    def serial(self, request, tmp_path_factory):
        name = request.param
        shards = build_sweep(name, quick=True, seed=42)
        store = RunStore(str(tmp_path_factory.mktemp(name) / "RUNS"))
        run = store.create(name, 42, shards, run_id="serial", quick=True)
        text = sweep_to_json(run_sweep(name, shards, workers=1, seed=42, run=run))
        return name, shards, store, text

    @pytest.mark.parametrize("workers", (2, 3))
    def test_same_bytes_on_a_pool(self, serial, workers):
        name, shards, _store, text = serial
        assert sweep_to_json(run_sweep(name, shards, workers=workers, seed=42)) == text

    def test_same_bytes_after_kill_and_resume_on_two_workers(self, serial):
        name, shards, store, text = serial
        shutil.copytree(
            os.path.join(store.root, "serial"), os.path.join(store.root, "killed")
        )
        killed = store.resume("killed", name, 42, shards, quick=True)
        # What a kill under completion-order recording can leave behind:
        # any subset of shards, not a prefix.
        for shard in shards[::2]:
            os.unlink(killed.shard_path(shard.index))
        report = run_sweep(name, shards, workers=2, seed=42, run=killed)
        assert report.cached_shards == len(shards) // 2
        assert sweep_to_json(report) == text
        assert killed.completed_indices() == [shard.index for shard in shards]


class TestOneShardAtATime:
    """A process frees its previous shard before it builds the next one,
    and never collects after its last."""

    @pytest.fixture
    def no_automatic_gc(self):
        # Only an explicit collection may free a shard's cyclic graph.
        gc.disable()
        yield
        gc.enable()

    def test_inline_sweep_frees_shard_0_before_building_shard_1(
        self, monkeypatch, no_automatic_gc
    ):
        # ``Simulator`` has no weakref slot: watch the deployment around it.
        refs, alive_at_build = [], []

        def tracking_build(spec):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            handle = build(spec)
            refs.extend(weakref.ref(part) for part in (
                handle, handle.server, *handle.pods.values(), *handle.sources))
            return handle

        monkeypatch.setattr(engine, "build", tracking_build)
        shards = [ShardSpec(index, {}, _tiny_spec(seed=index + 1)) for index in range(2)]
        run_sweep("tiny", shards, workers=1)
        assert alive_at_build == [0, 0]

    def test_inline_map_collects_between_payloads_only(self, monkeypatch):
        collections = []
        monkeypatch.setattr(engine.gc, "collect", lambda: collections.append(1))
        assert pool_map(_echo, [1, 2, 3], workers=1) == [("done", 1), ("done", 2), ("done", 3)]
        assert len(collections) == 2

    def test_inline_map_freezes_what_its_caller_held(self):
        assert gc.get_freeze_count() == 0
        assert all(pool_map(_frozen_objects, [0, 1], workers=1))
        assert gc.get_freeze_count() == 0

    def test_inline_map_leaves_a_callers_own_freeze_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert pool_map(_frozen_objects, [0, 1], workers=1) == [frozen, frozen]
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_pool_workers_freeze_what_they_inherit(self):
        assert gc.get_freeze_count() == 0
        assert all(pool_map(_frozen_objects, [0, 1], workers=2))

    def test_a_pool_worker_collects_before_its_later_tasks_only(self, monkeypatch):
        collections = []
        monkeypatch.setattr(engine, "_worker_tasks", 0)
        monkeypatch.setattr(engine.gc, "collect", lambda: collections.append(1))
        seen = []
        for position in range(3):
            assert engine._worker_call((_echo, position, position)) == (
                position, {"ok": True, "value": ("done", position)})
            seen.append(len(collections))
        assert seen == [0, 1, 2]


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

    def test_unknown_sweep_exits_2(self, capsys):
        assert main(["sweep", "nope"]) == 2
        captured = capsys.readouterr()
        assert "unknown sweep 'nope'; choose from tenant-scaling," in captured.err
        assert captured.out == ""

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
