"""The migration-invariant battery for ``repro.controlplane``.

The headline contract of live migration: **zero packet loss and zero
per-flow reordering**, with the executed timeline (drain, blackout,
total latency) reported as plain data.  These tests run the named
scenarios end to end and pin the invariants, the state-machine timeline,
the spec wire format and the registry contracts.
"""

import pytest

from repro.controlplane.migration import MigrationPhase
from repro.controlplane.scenarios import (
    MIGRATION_SCENARIOS,
    migration_scenario_spec,
    run_migration_scenario,
)
from repro.core.plb.reorder import TxOutcome
from repro.scenarios import MigrationSpec, PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim.units import MS


@pytest.fixture(scope="module", params=sorted(MIGRATION_SCENARIOS))
def scenario_report(request):
    return run_migration_scenario(request.param, seed=42, quick=True)


class TestScenarioInvariants:
    def test_migration_completes(self, scenario_report):
        assert scenario_report.values["final_state"] == MigrationPhase.COMPLETE

    def test_zero_packet_loss(self, scenario_report):
        assert scenario_report.values["drops_total"] == 0

    def test_zero_reordering(self, scenario_report):
        assert scenario_report.values["best_effort_total"] == 0

    def test_traffic_was_actually_held(self, scenario_report):
        """The blackout was real: packets arrived while the pod was down."""
        assert scenario_report.values["packets_buffered"] > 0

    def test_pod_moved_numa_nodes(self, scenario_report):
        assert scenario_report.values["source_numa_node"] == 0
        assert scenario_report.values["target_numa_node"] == 1

    def test_timing_metrics_populated(self, scenario_report):
        assert scenario_report.values["drain_ms"] > 0
        assert scenario_report.values["blackout_ms"] > 0
        assert scenario_report.values["total_ms"] >= scenario_report.values["blackout_ms"]
        assert scenario_report.values["snapshot_kib"] > 0
        assert scenario_report.values["drain_polls"] >= 1


class TestPhaseTimeline:
    @pytest.fixture(scope="class")
    def finished_run(self):
        spec = migration_scenario_spec("rolling-upgrade", seed=7, quick=True)
        return build(spec).run()

    def test_every_phase_entered_in_order(self, finished_run):
        plan = finished_run.migration.plan
        entered = [phase for phase, _ in plan.phases]
        assert entered == list(MigrationPhase.ORDER[1:])  # IDLE is implicit

    def test_phase_timestamps_monotonic(self, finished_run):
        plan = finished_run.migration.plan
        times = [at for _, at in plan.phases]
        assert times == sorted(times)
        assert (
            plan.started_ns
            <= plan.drained_ns
            <= plan.frozen_ns
            <= plan.restored_ns
            <= plan.flush_started_ns
            <= plan.completed_ns
        )

    def test_derived_metrics_consistent(self, finished_run):
        plan = finished_run.migration.plan
        assert plan.drain_ns == plan.drained_ns - plan.started_ns
        assert plan.blackout_ns == plan.flush_started_ns - plan.drained_ns
        assert plan.total_ns == plan.completed_ns - plan.started_ns

    def test_report_embeds_migration_section(self, finished_run):
        report = finished_run.report()
        assert report["migration"] == finished_run.migration.plan.to_dict()
        assert report["migration"]["state"] == MigrationPhase.COMPLETE


class TestPerFlowOrderAcrossMigration:
    """Exit-subscriber proof: per-flow uid order survives the pod swap."""

    @pytest.fixture(scope="class")
    def tapped_run(self):
        spec = migration_scenario_spec("rolling-upgrade", seed=13, quick=True)
        handle = build(spec)
        egress = []

        # Registered once: add_pod() hands the restored pod the same list.
        @handle.subscribe
        def capture(packet, where, outcome):
            if packet.drop_reason is None:
                egress.append((packet.flow, packet.uid, outcome))

        handle.run()
        # Stop the sources and run on so the last packets settle and the
        # conservation ledger can balance exactly.
        for source in handle.sources:
            source.stop()
        handle.sim.run_until(spec.duration_ns + 2 * MS)
        return handle, egress

    def test_everything_left_in_order(self, tapped_run):
        _, egress = tapped_run
        assert egress
        outcomes = {outcome for _, _, outcome in egress}
        assert outcomes == {TxOutcome.IN_ORDER}

    def test_per_flow_uids_strictly_increasing(self, tapped_run):
        _, egress = tapped_run
        per_flow = {}
        for flow, uid, _ in egress:
            per_flow.setdefault(flow, []).append(uid)
        assert len(per_flow) > 1
        for uids in per_flow.values():
            assert uids == sorted(uids)
            assert len(set(uids)) == len(uids)

    def test_packet_conservation(self, tapped_run):
        """Every packet that entered came out: rx == tx, nothing in flight."""
        handle, egress = tapped_run
        pod = handle.pods["gw"]
        assert pod.nic.in_flight() == 0
        counters = pod.counters.snapshot()
        assert counters["tx_packets"] == counters["rx_packets"]
        # The tap saw every transmit, pre- and post-migration.
        assert len(egress) == counters["tx_packets"]

    def test_buffer_fully_flushed(self, tapped_run):
        handle, _ = tapped_run
        controller = handle.migration
        assert controller.plan.state == MigrationPhase.COMPLETE
        assert not controller._buffer
        assert controller.plan.packets_buffered > 0


class TestRegistryCliSync:
    def test_descriptions_cover_every_scenario(self):
        assert list(MIGRATION_SCENARIOS) == sorted(MIGRATION_SCENARIOS)
        assert all(factory.__doc__.strip() for factory in MIGRATION_SCENARIOS.values())

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown migration scenario"):
            migration_scenario_spec("teleport")


class TestSpecWireFormat:
    def _spec(self):
        return ScenarioSpec(
            name="mig",
            pods=(PodSpec(name="gw", data_cores=2),),
            workload=WorkloadSpec(kind="cbr", flows=8, tenants=2, load=0.2),
            duration_ns=5 * MS,
            seed=3,
            migration=MigrationSpec(pod="gw", start_ns=1 * MS, target_numa_node=1),
        )

    def test_migration_spec_round_trip(self):
        migration = MigrationSpec(
            pod="gw",
            start_ns=123,
            target_numa_node=1,
            poll_ns=10_000,
            freeze_ns=5,
            per_kib_ns=7,
            restore_ns=9,
            route_update_ns=11,
            flush_rate_pps=500_000,
        )
        data = migration.to_dict()
        clone = MigrationSpec.from_dict(data)
        assert clone.to_dict() == data

    def test_scenario_spec_round_trip_carries_migration(self):
        spec = self._spec()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.migration is not None
        assert clone.migration.pod == "gw"

    def test_migrationless_spec_round_trips_as_none(self):
        data = self._spec().to_dict()
        data["migration"] = None
        assert ScenarioSpec.from_dict(data).migration is None

    def test_migration_must_target_known_pod(self):
        with pytest.raises(ValueError, match="unknown pod"):
            ScenarioSpec(
                name="bad",
                pods=(PodSpec(name="gw", data_cores=2),),
                workload=WorkloadSpec(kind="cbr", flows=8, tenants=2, load=0.2),
                duration_ns=5 * MS,
                migration=MigrationSpec(pod="ghost", start_ns=0),
            )

    def test_named_scenario_specs_round_trip(self):
        for name in MIGRATION_SCENARIOS:
            spec = migration_scenario_spec(name, seed=5, quick=True)
            assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
