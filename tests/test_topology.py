"""AZ topology: ECMP uplink, pod dispatch, DPU tier.

The load-bearing invariants:

* the uplink preserves per-flow packet order across servers (each flow
  resolves to exactly one server and arrives there in emission order);
* packet conservation across the tiers (uplink forwarded == DPU fast
  forwards + host dispatches);
* the ``az-scaling`` sweep merges byte-identically for any worker
  count, with per-server and per-tier sections present.
"""

import collections
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import LatencyHistogram
from repro.packet.flows import FlowKey
from repro.packet.hashing import crc32_flow_hash
from repro.packet.packet import Packet
from repro.scenarios import build
from repro.scenarios.registry import scenario_spec
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.topology import DpuPreClassifier, EcmpUplink, FlowPodDispatch
from repro.topology.dpu import DPU_FAST_PATH

AZ_GOLDEN = Path(__file__).parent / "golden" / "SWEEP_az_scaling_quick_ts5.json"


def _flow(index):
    return FlowKey(0x0A000000 + index, 0x0B000001, 1000 + index, 443, 6)


def _collector(into):
    def sink(packet):
        into.append(packet)
    return sink


class TestEcmpUplink:
    def test_flow_sticks_to_one_server(self):
        received = {"a": [], "b": [], "c": []}
        uplink = EcmpUplink(
            [(name, _collector(into)) for name, into in sorted(received.items())]
        )
        for index in range(32):
            for _ in range(4):
                uplink.forward(Packet(_flow(index)))
        for name, packets in received.items():
            flows = {packet.flow for packet in packets}
            by_flow = {}
            for packet in packets:
                by_flow.setdefault(packet.flow, []).append(packet.uid)
            for uids in by_flow.values():
                assert uids == sorted(uids)
            assert len(packets) == sum(4 for _ in flows)
        total = sum(len(packets) for packets in received.values())
        assert total == 32 * 4
        assert uplink.counters.get("forwarded") == 32 * 4

    def test_affinity_pins_then_hits(self):
        sinkhole = []
        uplink = EcmpUplink([("only", _collector(sinkhole))])
        for _ in range(3):
            uplink.forward(Packet(_flow(1)))
        assert uplink.counters.get("affinity_pins") == 1
        assert uplink.counters.get("affinity_hits") == 2
        assert uplink.pinned_flows == 1

    def test_pinning_disabled_skips_affinity_table(self):
        sinkhole = []
        uplink = EcmpUplink([("only", _collector(sinkhole))], pin_flows=False)
        uplink.forward(Packet(_flow(1)))
        assert uplink.pinned_flows == 0
        assert uplink.counters.get("affinity_pins") == 0

    def test_spread_across_members(self):
        received = {"a": [], "b": [], "c": [], "d": []}
        uplink = EcmpUplink(
            [(name, _collector(into)) for name, into in sorted(received.items())]
        )
        for index in range(256):
            uplink.forward(Packet(_flow(index)))
        # A seeded hash over 256 flows lands work on every member.
        assert all(packets for packets in received.values())
        for name, packets in received.items():
            assert uplink.counters.get(f"to_server.{name}") == len(packets)

    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError, match="at least one server"):
            EcmpUplink([])


class TestFlowPodDispatch:
    def test_dispatch_counts_per_pod(self):
        received = {"p0": [], "p1": []}
        dispatch = FlowPodDispatch(
            "srv", [(name, _collector(into)) for name, into in sorted(received.items())]
        )
        for index in range(64):
            dispatch.forward(Packet(_flow(index)))
        assert dispatch.counters.get("dispatched") == 64
        assert (
            dispatch.counters.get("to_pod.p0") + dispatch.counters.get("to_pod.p1")
            == 64
        )
        assert all(packets for packets in received.values())

    def test_no_pods_rejected(self):
        with pytest.raises(ValueError, match="no pods"):
            FlowPodDispatch("srv", [])

    @settings(max_examples=100, deadline=None)
    @given(
        flows=st.lists(
            st.builds(
                FlowKey,
                st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
                st.sampled_from([6, 17]),
            ),
            min_size=1, max_size=40,
        ),
        seed=st.integers(0, 2**32 - 1),
        pods=st.integers(1, 7),
    )
    def test_memoised_pick_is_the_seeded_hash(self, flows, seed, pods):
        received = [[] for _ in range(pods)]
        dispatch = FlowPodDispatch(
            "srv", [(f"p{index}", into.append) for index, into in enumerate(received)],
            hash_seed=seed,
        )
        for _ in range(2):  # first sight computes, the second reads the memo
            for flow in flows:
                dispatch.forward(Packet(flow))
        expected = [[] for _ in range(pods)]
        for _ in range(2):
            for flow in flows:
                expected[crc32_flow_hash(flow, seed) % pods].append(flow)
        assert [[packet.flow for packet in into] for into in received] == expected
        for index in range(pods):
            assert dispatch.counters.get(f"to_pod.p{index}") == len(expected[index])
        assert dispatch.counters.get("dispatched") == 2 * len(flows)

    def test_one_pod_is_picked_without_a_hash_or_memo(self, monkeypatch):
        def no_hash(flow, seed):
            raise AssertionError("a one-pod server hashed a flow")

        monkeypatch.setattr("repro.topology.switch.crc32_flow_hash", no_hash)
        received = []
        dispatch = FlowPodDispatch("srv", [("p0", received.append)])
        for index in range(64):
            dispatch.forward(Packet(_flow(index)))
        assert dispatch._pod_of is None
        assert len(received) == 64
        assert dispatch.counters.counts == {"dispatched": 64, "to_pod.p0": 64}


class TestDpuPreClassifier:
    def test_fast_path_stamps_and_bypasses_host(self):
        sim = Simulator()
        slow = []
        dpu = DpuPreClassifier(sim, _collector(slow), fast_latency_ns=2_000)
        flow = _flow(1)
        dpu.ingress(Packet(flow))
        assert len(slow) == 1          # not installed: host path
        assert dpu.promote(flow)
        packet = Packet(flow)
        dpu.ingress(packet)
        assert len(slow) == 1          # installed: DPU terminal
        assert packet.latency_ns == 2_000
        assert dpu.counters.get("fast_forwards") == 1
        assert dpu.latency_histogram.count == 1

    @pytest.mark.parametrize("fast_latency_ns", [0, 2_000, 12_345])
    def test_latency_histogram_is_derived_from_fast_forwards(self, fast_latency_ns):
        dpu = DpuPreClassifier(Simulator(), _collector([]), fast_latency_ns=fast_latency_ns)
        assert dpu.latency_histogram.checkpoint() == LatencyHistogram().checkpoint()
        flow = _flow(1)
        dpu.promote(flow)
        recorded = LatencyHistogram()
        for _ in range(3):
            dpu.ingress(Packet(flow))
            recorded.record(fast_latency_ns)
        assert dpu.latency_histogram.checkpoint() == recorded.checkpoint()

    def test_table_capacity_and_demotion(self):
        sim = Simulator()
        dpu = DpuPreClassifier(sim, _collector([]), table_capacity=2)
        assert dpu.promote(_flow(1))
        assert dpu.promote(_flow(2))
        assert not dpu.promote(_flow(3))
        assert dpu.counters.get("table_full") == 1
        assert not dpu.promote(_flow(1))       # already installed
        assert dpu.demote(_flow(1))
        assert not dpu.demote(_flow(1))        # already gone
        assert dpu.occupancy == 1
        assert dpu.promote(_flow(3))           # slot recycled

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="table_capacity"):
            DpuPreClassifier(Simulator(), _collector([]), table_capacity=0)


class TestTopologyScenario:
    def _run(self, servers=2, tenants=1_500):
        spec = scenario_spec(
            "az-steady", quick=True, servers=servers, tenants=tenants
        )
        return build(spec).run()

    def test_per_flow_ordering_across_uplink(self):
        spec = scenario_spec("az-steady", quick=True, servers=3, tenants=1_000)
        handle = build(spec)
        uplink = handle.topology.uplink
        # Exits name the pod or DPU tier; map both back to their server.
        home = {}
        for server, runtime in handle.topology.servers.items():
            home.update(dict.fromkeys([runtime.dpu.name, *runtime.pods], server))
        servers = {}                  # flow -> the servers it left through
        uids = {}                     # (flow, exit) -> [uids]

        @handle.subscribe
        def on_exit(packet, where, outcome):
            # Static members: the pin always agrees with the ECMP hash.
            index = crc32_flow_hash(packet.flow, uplink.hash_seed) % len(uplink.members)
            pinned, _sink = uplink.members[index]
            assert home[where] == pinned, "flow left its hashed server"
            servers.setdefault(packet.flow, set()).add(home[where])
            if packet.drop_reason is None:
                # Per exit: a flow promoted mid-run leaves through the DPU
                # while its earlier packets are still in the host pipeline.
                uids.setdefault((packet.flow, where), []).append(packet.uid)

        handle.run()
        assert all(len(left) == 1 for left in servers.values()), "a flow left two servers"
        assert {home[where] for _flow, where in uids} == set(home.values())
        for stream in uids.values():
            assert stream == sorted(stream), "per-flow uid order broke"

    def test_tier_packet_conservation(self):
        handle = build(scenario_spec("az-steady", quick=True, servers=2))
        exits = collections.Counter()

        @handle.subscribe
        def count(packet, where, outcome):
            host = "drop" if packet.drop_reason is not None else "egress"
            exits["dpu" if outcome == DPU_FAST_PATH else host] += 1

        report = handle.run().report()
        forwarded = report["uplink"]["counters"]["forwarded"]
        fast = report["tiers"]["dpu"]["counters"]["fast_forwards"]
        dispatched = sum(
            entry["dispatch"]["dispatched"]
            for entry in report["servers"].values()
        )
        assert forwarded == fast + dispatched
        # AZ-wide over the three exits: every emitted packet is accounted for.
        emitted = sum(source.emitted for source in handle.sources)
        in_flight = sum(pod.nic.in_flight() for pod in handle.pods.values())
        assert emitted == forwarded == sum(exits.values()) + in_flight
        assert exits["dpu"] == fast > 0
        assert exits["egress"] == report["tiers"]["host"]["packets"] > 0

    def test_report_sections_present_and_json_safe(self):
        report = self._run().report()
        assert set(report["servers"]) == {"srv0", "srv1"}
        assert report["uplink"]["members"] == ["srv0", "srv1"]
        assert set(report["tiers"]) == {"host", "dpu"}
        json.dumps(report)            # plain data end to end

    def test_single_server_report_has_no_topology_sections(self):
        spec = scenario_spec("fleet-steady", quick=True, tenants=500)
        report = build(spec).run().report()
        assert "uplink" not in report
        assert "servers" not in report
        assert "tiers" not in report

    def test_same_seed_same_bytes(self):
        first = json.dumps(self._run().report(), sort_keys=True)
        second = json.dumps(self._run().report(), sort_keys=True)
        assert first == second

    def test_promotions_happen_under_zipf(self):
        report = self._run(tenants=2_000).report()
        dpu = report["tiers"]["dpu"]
        assert dpu["counters"]["promotions"] > 0
        assert dpu["packets"] > 0
        assert dpu["latency"]["count"] == dpu["packets"]


class TestAzSweep:
    def _merged(self, workers):
        from repro.fleet.engine import run_sweep
        from repro.fleet.sweeps import build_sweep

        return run_sweep(
            "az-scaling", build_sweep("az-scaling", quick=True),
            workers=workers, seed=42,
        )

    def test_two_workers_match_committed_golden(self, tmp_path):
        """The multi-section merge (uplink, servers, tiers, timeseries) byte
        for byte on the pool.  The golden was written on one worker, so
        this is also the worker-count invariance check."""
        from repro.cli import main

        output = tmp_path / "az.json"
        assert main([
            "sweep", "az-scaling", "--quick", "--timeseries-every-ms", "5",
            "--workers", "2", "--runs-dir", str(tmp_path / "RUNS"),
            "--output", str(output),
        ]) == 0
        assert output.read_bytes() == AZ_GOLDEN.read_bytes()

    def test_render_splits_deliveries_by_tier(self):
        """The fleet headline counts host deliveries only; topology sweeps
        add the DPU fast path's share on a ``tiers`` line."""
        from repro.fleet.report import SweepReport

        def render(path):
            artifact = json.loads(path.read_text())
            return SweepReport(
                artifact["sweep"], artifact["seed"], [], artifact["merged"]
            ).render().splitlines()

        assert "  tiers: host 18212, dpu fast path 5778 (24.1 %)" in render(AZ_GOLDEN)
        tenant = render(AZ_GOLDEN.with_name("SWEEP_tenant_scaling_quick.json"))
        assert not any(line.startswith("  tiers:") for line in tenant)

    def test_merged_sections(self):
        merged = self._merged(2).merged
        assert merged["uplink"]["members"] == ["srv0", "srv1", "srv2"]
        assert set(merged["tiers"]) == {"host", "dpu"}
        assert merged["tiers"]["dpu"]["packets"] > 0
        assert merged["tiers"]["host"]["packets"] > 0
        for name, entry in merged["servers"].items():
            assert entry["dispatch"]["dispatched"] > 0, name

    def test_axes_in_rows(self):
        report = self._merged(1)
        assert [row["servers"] for row in report.rows()] == [2, 3]

    def test_single_server_merge_untouched(self):
        """Reports without topology sections merge to historical keys."""
        from repro.fleet.report import merge_run_reports
        from repro.fleet.sweeps import build_sweep

        spec = build_sweep("tenant-scaling", quick=True)[0].spec
        report = build(spec).run().report()
        merged = merge_run_reports([report])
        assert "uplink" not in merged
        assert "servers" not in merged
        assert "tiers" not in merged
