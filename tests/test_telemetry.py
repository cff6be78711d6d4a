"""Windowed time-series telemetry tests.

Covers the :mod:`repro.telemetry` recorder end to end: window edge
semantics (partial trailing rows, exactly divisible runs, runs shorter
than one window), per-window conservation against end-of-run aggregates,
report purity and the disabled-path guarantee, the checkpoint/resume
series identity, window latencies against a per-window reference,
fleet-level shard merging (worker invariance), and the
``flatten_windows``/``validate_series`` rendering helpers.
"""

import json

import pytest

from repro.analysis.statecheck import probe_object
from repro.core.gateway import AlbatrossServer
from repro.controlplane.scenarios import MIGRATION_SCENARIOS, migration_scenario_spec
from repro.fleet import (
    build_sweep,
    replicate,
    run_sweep,
    sweep_to_json,
    with_timeseries,
)
from repro.metrics.histogram import LatencyHistogram, bucket_edge, bucket_top
from repro.scenarios import (
    PodSpec,
    ScenarioSpec,
    WorkloadSpec,
    build,
)
from repro.sim import MS, RngRegistry, Simulator
from repro.telemetry import (
    TIMESERIES_SCHEMA_VERSION,
    TimeSeriesRecorder,
    flatten_windows,
    validate_series,
)
from tests import test_golden_reports as golden_reports


def _spec(duration_ns=7 * MS, every_ns=2 * MS, seed=11, **extra):
    return ScenarioSpec(
        name="telemetry",
        pods=(PodSpec(name="gw", data_cores=2, per_core_pps=200_000),),
        workload=WorkloadSpec(flows=16, tenants=4, load=0.4),
        duration_ns=duration_ns,
        seed=seed,
        timeseries_every_ns=every_ns,
        **extra,
    )


def _quiet_world(every_ns=1 * MS):
    """A recorder over a real pod with no traffic attached."""
    sim = Simulator()
    rngs = RngRegistry(seed=7)
    server = AlbatrossServer(sim, rngs)
    pod = server.add_pod(PodSpec(name="gw", data_cores=2))
    recorder = TimeSeriesRecorder(sim, {"gw": pod}, every_ns)
    return sim, pod, recorder


class TestWindowEdges:
    def test_partial_trailing_row_when_not_divisible(self):
        handle = build(_spec(duration_ns=7 * MS, every_ns=2 * MS)).run()
        section = handle.report()["timeseries"]
        validate_series(section)
        assert section["every_ns"] == 2 * MS
        windows = section["windows"]
        assert [w["window"] for w in windows] == [0, 1, 2, 3]
        assert [w["start_ns"] for w in windows] == [0, 2 * MS, 4 * MS, 6 * MS]
        assert [w["end_ns"] for w in windows] == [2 * MS, 4 * MS, 6 * MS, 7 * MS]
        # The last row is partial: one window wide it is not.
        assert windows[-1]["end_ns"] - windows[-1]["start_ns"] < 2 * MS

    def test_exactly_divisible_run_has_no_partial_row(self):
        handle = build(_spec(duration_ns=6 * MS, every_ns=2 * MS)).run()
        windows = handle.report()["timeseries"]["windows"]
        assert [w["window"] for w in windows] == [0, 1, 2]
        assert all(w["end_ns"] - w["start_ns"] == 2 * MS for w in windows)

    def test_run_shorter_than_one_window(self):
        handle = build(_spec(duration_ns=1 * MS, every_ns=5 * MS)).run()
        windows = handle.report()["timeseries"]["windows"]
        assert len(windows) == 1
        assert (windows[0]["start_ns"], windows[0]["end_ns"]) == (0, 1 * MS)

    def test_windows_conserve_end_of_run_totals(self):
        handle = build(_spec(duration_ns=7 * MS, every_ns=2 * MS)).run()
        report = handle.report()
        windows = report["timeseries"]["windows"]
        pod = handle.pods["gw"]

        def windowed_total(counter):
            return sum(
                w["pods"]["gw"]["counters"].get(counter, 0) for w in windows
            )

        assert windowed_total("tx_packets") == pod.counters.get("tx_packets")
        assert windowed_total("rx_packets") == pod.counters.get("rx_packets")
        latency_total = sum(
            w["pods"]["gw"]["latency"]["count"] for w in windows
        )
        assert latency_total == pod.latency_histogram.count
        assert latency_total > 0

    def test_empty_windows_render_with_zero_latency(self):
        sim, pod, recorder = _quiet_world(every_ns=1 * MS)
        sim.run_until(3 * MS)
        section = recorder.series()
        assert len(section["windows"]) == 3
        for window in section["windows"]:
            assert window["pods"]["gw"]["counters"] == {}
            assert window["pods"]["gw"]["latency"] == {
                "count": 0, "mean_ns": 0.0, "p50_ns": 0, "p99_ns": 0,
            }
        rows = flatten_windows(section["windows"])
        assert all(row["tx"] == 0 and row["count"] == 0 for row in rows)

    def test_series_is_pure(self):
        # Reading the series mid-window must not flush the partial row.
        sim, pod, recorder = _quiet_world(every_ns=2 * MS)
        sim.run_until(3 * MS)
        first = recorder.series()
        second = recorder.series()
        assert first == second
        assert len(recorder.windows) == 1  # only the flushed window

    def test_counter_namespace_spans_nic_reorder_and_cores(self):
        handle = build(_spec(duration_ns=4 * MS, every_ns=2 * MS)).run()
        windows = handle.report()["timeseries"]["windows"]
        keys = set()
        for window in windows:
            keys.update(window["pods"]["gw"]["counters"])
        assert "tx_packets" in keys
        assert any(key.startswith("core_") for key in keys)
        assert any(key.startswith("reorder_") for key in keys)


class TestRecorder:
    def test_rejects_non_positive_window(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="positive"):
            TimeSeriesRecorder(sim, {}, 0)

    def test_checkpoint_probe_round_trips(self):
        # The statecheck probe: checkpoint -> restore(json round trip)
        # into a freshly built twin -> checkpoint must be byte-identical
        # with no exclusion.
        spec = _spec(duration_ns=5 * MS, every_ns=2 * MS)
        handle = build(spec).run()
        assert probe_object(handle.telemetry, build(spec).telemetry) is None

    def test_restore_rejects_pod_mismatch(self):
        _, _, recorder = _quiet_world()
        snapshot = recorder.checkpoint()
        snapshot["prev"] = {"other": next(iter(snapshot["prev"].values()))}
        with pytest.raises(ValueError, match="do not match"):
            recorder.restore(snapshot)

    def test_resume_reproduces_identical_series(self):
        # Light load: the checkpointer only fires at quiescent instants,
        # so the pod needs idle windows between packets.
        spec = _spec(
            duration_ns=8 * MS, every_ns=2 * MS, checkpoint_every_ns=3 * MS,
        ).with_overrides(overrides={"workload.load": 0.15})
        baseline = build(spec).run()
        expected = json.dumps(baseline.report(), sort_keys=True)

        snapshot = baseline.checkpointer.latest
        assert snapshot is not None
        resumed = build(spec)
        resumed.restore_checkpoint(json.loads(json.dumps(snapshot)))
        assert resumed.sim.now > 0  # genuinely mid-run
        resumed.run(spec.duration_ns - resumed.sim.now)
        assert json.dumps(resumed.report(), sort_keys=True) == expected


class TestOneRecordPerPacket:
    """A window's latency is the difference of the pod's own sketch across
    it, checked against a reference that records every pod egress a
    second time into per-window sketches."""

    def test_armed_build_subscribes_nothing(self):
        assert build(_spec()).server.subscribers == []

    @staticmethod
    def _moved_reads(handle):
        """Run ``handle`` beside the reference; how many window reads the
        clamp moved."""
        recorder = handle.telemetry
        reference, run_max = {}, {}

        @handle.subscribe
        def record(packet, where, outcome):
            # The window a packet lands in is the number flushed so far.
            if outcome is not None and where in handle.pods:
                window = len(recorder.windows)
                reference.setdefault((window, where), LatencyHistogram()).record(
                    packet.latency_ns
                )
                run_max[where] = max(run_max.get(where, 0), packet.latency_ns)
                run_max[window, where] = run_max[where]

        handle.run()
        moved = 0
        for window in handle.report()["timeseries"]["windows"]:
            for name, pod in window["pods"].items():
                got = pod["latency"]
                own = reference.get((window["window"], name), LatencyHistogram())
                assert got["count"] == own.count
                assert got["mean_ns"] == round(own.mean_ns, 3)
                for key, fraction in (("p50_ns", 0.50), ("p99_ns", 0.99)):
                    want = own.percentile(fraction)
                    if not own.count:
                        assert got[key] == want == 0
                        continue
                    # The clamp is the run's max so far, not the window's.
                    top = bucket_top(bucket_edge(want))
                    assert got[key] == min(top, run_max[window["window"], name])
                    assert got[key] >= want and bucket_edge(got[key]) == bucket_edge(want)
                    moved += got[key] != want
        return moved

    def test_overload_windows_match_the_reference(self):
        handle = build(golden_reports._burst_limited().with_overrides(
            overrides={"timeseries_every_ns": 2 * MS}
        ))
        golden_reports._arm_bursts(handle)
        assert self._moved_reads(handle) > 0

    @pytest.mark.parametrize("name", MIGRATION_SCENARIOS)
    def test_migration_windows_match_the_reference(self, name):
        # Windows after the swap difference the rebuilt pod's restored sketch.
        spec = migration_scenario_spec(name, seed=7, quick=True).with_overrides(
            overrides={"timeseries_every_ns": 2 * MS}
        )
        self._moved_reads(build(spec))


class TestReport:
    def test_disabled_spec_has_no_timeseries_key(self):
        spec = _spec(duration_ns=4 * MS, every_ns=2 * MS)
        disabled = spec.with_overrides(overrides={"timeseries_every_ns": None})
        handle = build(disabled).run()
        assert handle.telemetry is None
        assert "timeseries" not in handle.report()

    def test_report_is_repeatable(self):
        handle = build(_spec(duration_ns=5 * MS, every_ns=2 * MS)).run()
        first = json.dumps(handle.report(), sort_keys=True)
        second = json.dumps(handle.report(), sort_keys=True)
        assert first == second


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = _spec(every_ns=3 * MS)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.timeseries_every_ns == 3 * MS
        assert clone.to_dict() == spec.to_dict()

    def test_defaults_to_disabled(self):
        data = _spec().to_dict()
        del data["timeseries_every_ns"]
        assert ScenarioSpec.from_dict(data).timeseries_every_ns is None

    def test_rejects_non_positive_cadence(self):
        with pytest.raises(ValueError, match="timeseries_every_ns"):
            _spec(every_ns=0)



class TestMigration:
    """A pod rebuilt mid-run keeps feeding the recorder."""

    @pytest.mark.parametrize("name", MIGRATION_SCENARIOS)
    def test_armed_migration_conserves_per_window(self, name):
        spec = migration_scenario_spec(name, seed=7, quick=True).with_overrides(
            overrides={"timeseries_every_ns": 2 * MS}
        )
        handle = build(spec).run()
        report = handle.report()
        assert report["migration"]["state"] == "complete"
        windows = report["timeseries"]["windows"]
        validate_series(report["timeseries"])
        # Every transmitted packet lands in exactly one window's latency
        # histogram -- before, during and after the pod is rebuilt.
        for window in windows:
            for pod in window["pods"].values():
                assert pod["latency"]["count"] == pod["counters"].get("tx_packets", 0)
        migrated = spec.migration.pod
        completed_ns = report["migration"]["completed_ns"]
        after = [w for w in windows if w["start_ns"] >= completed_ns]
        assert after and all(w["pods"][migrated]["latency"]["count"] for w in after)
        for pod_name, pod in handle.pods.items():
            total = sum(w["pods"][pod_name]["latency"]["count"] for w in windows)
            assert total == pod.transmitted()


class TestFleetMerge:
    def _shards(self, count=3):
        base = _spec(duration_ns=4 * MS, every_ns=2 * MS)
        plain = base.with_overrides(overrides={"timeseries_every_ns": None})
        return with_timeseries(replicate(plain, count, seed=9), 2 * MS)

    def test_merged_artifact_is_worker_invariant(self):
        shards = self._shards()
        solo = run_sweep("ts", shards, workers=1, seed=9)
        pooled = run_sweep("ts", shards, workers=2, seed=9)
        assert sweep_to_json(solo) == sweep_to_json(pooled)

    def test_merge_concatenates_windows_tagged_by_shard(self):
        report = run_sweep("ts", self._shards(2), workers=1, seed=9)
        section = json.loads(sweep_to_json(report))["merged"]["timeseries"]
        validate_series(section)
        assert section["every_ns"] == 2 * MS
        assert [w["shard"] for w in section["windows"]] == [0, 0, 1, 1]
        assert [w["window"] for w in section["windows"]] == [0, 1, 0, 1]

    def test_armed_migration_sweep_is_worker_invariant(self):
        # python -m repro sweep migration-replication --quick
        #   --timeseries-every-ms 5, on 1 and 2 workers.
        shards = with_timeseries(
            build_sweep("migration-replication", quick=True, seed=42), 5 * MS
        )
        solo = run_sweep("migration-replication", shards, workers=1, seed=42)
        pooled = run_sweep("migration-replication", shards, workers=2, seed=42)
        assert sweep_to_json(solo) == sweep_to_json(pooled)
        merged = json.loads(sweep_to_json(solo))["merged"]
        validate_series(merged["timeseries"])

    def test_merge_without_telemetry_omits_section(self):
        base = _spec(duration_ns=4 * MS, every_ns=2 * MS)
        plain = base.with_overrides(overrides={"timeseries_every_ns": None})
        report = run_sweep("ts", replicate(plain, 2, seed=9), workers=1, seed=9)
        assert "timeseries" not in json.loads(sweep_to_json(report))["merged"]


class TestRendering:
    def _section(self):
        handle = build(_spec(duration_ns=4 * MS, every_ns=2 * MS)).run()
        return handle.report()["timeseries"]

    def test_flatten_converts_units_and_sums_drops(self):
        windows = [{
            "window": 0, "start_ns": 0, "end_ns": 2 * MS,
            "pods": {"gw": {
                "counters": {
                    "tx_packets": 10, "acl_drops": 2, "rate_limited_drops": 3,
                },
                "latency": {
                    "count": 10, "mean_ns": 4500.0,
                    "p50_ns": 4000, "p99_ns": 9000,
                },
            }},
        }]
        row, = flatten_windows(windows, source="a")
        assert row["source"] == "a"
        assert "shard" not in row
        assert (row["tx"], row["drops"], row["count"]) == (10, 5, 10)
        assert (row["mean_us"], row["p50_us"], row["p99_us"]) == (4.5, 4.0, 9.0)
        assert row["t_ms"] == 0.0

    def test_flatten_carries_shard_column(self):
        windows = [dict(window, shard=4) for window in self._section()["windows"]]
        rows = flatten_windows(windows)
        assert all(row["shard"] == 4 for row in rows)

    def test_validate_accepts_real_section(self):
        section = self._section()
        assert validate_series(section) is section
        assert section["schema_version"] == TIMESERIES_SCHEMA_VERSION

    def test_validate_rejects_malformed_sections(self):
        good = self._section()
        with pytest.raises(ValueError, match="schema"):
            validate_series(dict(good, schema_version=99))
        with pytest.raises(ValueError, match="every_ns"):
            validate_series(dict(good, every_ns=0))
        with pytest.raises(ValueError, match="not a dict"):
            validate_series([])
        missing = json.loads(json.dumps(good))
        del missing["windows"][0]["pods"]
        with pytest.raises(ValueError, match="missing 'pods'"):
            validate_series(missing)
        empty_span = json.loads(json.dumps(good))
        empty_span["windows"][0]["end_ns"] = empty_span["windows"][0]["start_ns"]
        with pytest.raises(ValueError, match="empty-spanned"):
            validate_series(empty_span)
        backwards = json.loads(json.dumps(good))
        backwards["windows"] = [
            backwards["windows"][1], backwards["windows"][0],
        ]
        with pytest.raises(ValueError, match="backwards"):
            validate_series(backwards)
