"""Property-based tests of the live-migration invariants.

Hypothesis draws random workload mixes and random migration trigger
times and checks the properties the control plane must uphold for *any*
run, not just the two named scenarios:

1. the migration always completes, and afterwards nothing is left in
   flight -- every packet that entered the pod is accounted for
   (transmitted or counted by exactly one terminal drop counter);
2. per-flow in-order egress survives the pod swap: within a flow, the
   IN_ORDER releases carry strictly increasing uids across drain,
   freeze, restore and flush;
3. a checkpoint/restore round trip of an *idle* pod is invisible --
   after identical follow-on traffic, the round-tripped pod's next
   checkpoint is byte-identical to that of a pod that never migrated.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import snapshot_bytes
from repro.controlplane.migration import MigrationPhase
from repro.core import AlbatrossServer
from repro.core.plb.reorder import TxOutcome
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet
from repro.scenarios import (
    MigrationSpec,
    PodSpec,
    ScenarioSpec,
    WorkloadSpec,
    build,
)
from repro.sim import RngRegistry, Simulator
from repro.sim.units import MS, US

workloads = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(("cbr", "microburst")),
        "flows": st.integers(min_value=1, max_value=60),
        "tenants": st.integers(min_value=1, max_value=8),
        "load": st.floats(min_value=0.1, max_value=0.6),
        "population": st.sampled_from(("uniform", "zipf")),
        "burst_factor": st.floats(min_value=1.2, max_value=2.0),
    }
)


def _migrated_run(workload, start_ns, seed):
    duration = 6 * MS
    spec = ScenarioSpec(
        name="prop-migration",
        pods=(
            PodSpec(name="gw", data_cores=2, per_core_pps=100_000, numa_node=0),
        ),
        workload=WorkloadSpec(
            kind=workload["kind"],
            flows=workload["flows"],
            tenants=min(workload["tenants"], workload["flows"]),
            load=workload["load"],
            population=workload["population"],
            burst_factor=workload["burst_factor"],
            stream="traffic",
        ),
        duration_ns=duration,
        seed=seed,
        migration=MigrationSpec(
            pod="gw",
            start_ns=start_ns,
            target_numa_node=1,
            poll_ns=20 * US,
            freeze_ns=50 * US,
            per_kib_ns=20,
            restore_ns=50 * US,
            route_update_ns=20 * US,
            flush_rate_pps=200_000,   # the pod's line rate
        ),
    )
    handle = build(spec)
    egress = []

    @handle.subscribe
    def capture(packet, where, outcome):
        if packet.drop_reason is None:
            egress.append((packet.flow, packet.uid, outcome))

    handle.run()
    for source in handle.sources:
        source.stop()
    handle.sim.run_until(duration + 5 * MS)
    return handle, egress


class TestRandomizedMigrations:
    @settings(max_examples=25, deadline=None)
    @given(
        workload=workloads,
        start_ns=st.integers(min_value=200_000, max_value=4_000_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_conservation_and_completion(self, workload, start_ns, seed):
        handle, egress = _migrated_run(workload, start_ns, seed)
        assert handle.migration.plan.state == MigrationPhase.COMPLETE
        pod = handle.pods["gw"]
        assert pod.nic.in_flight() == 0
        assert not handle.migration._buffer
        counters = pod.counters.snapshot()
        assert counters["rx_packets"] > 0
        # Everything the tap saw transmit is in tx_packets, and rx
        # splits exactly into tx + terminal drops (in_flight == 0 above).
        in_order = sum(
            1 for _, _, outcome in egress if outcome is TxOutcome.IN_ORDER
        )
        assert in_order <= counters["tx_packets"]

    @settings(max_examples=25, deadline=None)
    @given(
        workload=workloads,
        start_ns=st.integers(min_value=200_000, max_value=4_000_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_per_flow_order_survives(self, workload, start_ns, seed):
        handle, egress = _migrated_run(workload, start_ns, seed)
        assert handle.migration.plan.state == MigrationPhase.COMPLETE
        per_flow = {}
        for flow, uid, outcome in egress:
            if outcome is TxOutcome.IN_ORDER:
                per_flow.setdefault(flow, []).append(uid)
        assert per_flow
        for uids in per_flow.values():
            assert uids == sorted(uids)
            assert len(set(uids)) == len(uids)


def _pod_on_fresh_server(seed):
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    server = AlbatrossServer(sim, rngs)
    pod = server.add_pod(
        PodSpec(name="gw", data_cores=2, acl_drop_probability=0.05)
    )
    return sim, server, pod


def _inject(sim, pod_getter, plan, base_ns):
    for offset_ns, flow_index in plan:
        packet_flow = FlowKey(
            0x0A000000 + flow_index, 0x0B000000, 1000 + flow_index, 443, 17
        )
        sim.schedule_at(
            base_ns + offset_ns,
            lambda f=packet_flow: pod_getter().ingress(Packet(f)),
        )


injection_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1_000_000),   # offset within 1 ms
        st.integers(min_value=0, max_value=31),          # flow index
    ),
    min_size=1,
    max_size=40,
)


class TestIdleRoundTripInvisible:
    @settings(max_examples=20, deadline=None)
    @given(
        before=injection_plans,
        after=injection_plans,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_byte_identical_to_never_migrating(
        self, before, after, seed
    ):
        """Checkpoint/restore at an idle instant changes nothing.

        Both runs see identical packet schedules; run B additionally
        freezes the (by then idle) pod at t=3ms and restores it into a
        freshly built pod.  The final checkpoints must match byte for
        byte: no counter, histogram bucket, session slot or rng position
        may remember that the round trip happened.
        """
        finals = []
        for migrate in (False, True):
            sim, server, pod = _pod_on_fresh_server(seed)
            holder = {"pod": pod}
            _inject(sim, lambda: holder["pod"], before, base_ns=0)
            _inject(sim, lambda: holder["pod"], after, base_ns=4 * MS)

            def round_trip():
                snapshot = holder["pod"].checkpoint()
                server.remove_pod("gw")
                rebuilt = server.add_pod(PodSpec(
                    name="gw", data_cores=2, acl_drop_probability=0.05
                ))
                rebuilt.restore(snapshot)
                holder["pod"] = rebuilt

            if migrate:
                sim.schedule_at(3 * MS, round_trip)
            sim.run_until(8 * MS)
            assert holder["pod"].quiescent()
            finals.append(snapshot_bytes(holder["pod"].checkpoint()))
        assert finals[0] == finals[1]
