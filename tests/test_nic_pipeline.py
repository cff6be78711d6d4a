"""Integration tests for the assembled NIC pipeline + GW pod runtime."""

import collections

import pytest

from repro.core.gateway import (
    AlbatrossServer,
    PodConfig,
    default_reorder_queue_count,
)
from repro.core.nic import NicPipeline
from repro.core.pktdir import DeliveryPath
from repro.core.ratelimit import TwoStageRateLimiter
from repro.cpu.core import Verdict
from repro.packet.flows import FlowKey, flow_for_tenant
from repro.packet.packet import Packet, PacketKind
from repro.scenarios import scaled_service
from repro.sim import MS, RngRegistry, Simulator, US
from repro.workloads.generators import CbrSource, uniform_population


def make_pod(**overrides):
    sim = Simulator()
    rngs = RngRegistry(seed=3)
    server = AlbatrossServer(sim, rngs)
    defaults = dict(name="pod", data_cores=4)
    defaults.update(overrides)
    pod = server.add_pod(PodConfig(**defaults))
    return sim, rngs, server, pod


class TestEndToEnd:
    def test_packets_flow_through(self):
        sim, rngs, _, pod = make_pod()
        population = uniform_population(100, tenants=10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=500_000)
        sim.run_until(10 * MS)
        assert pod.transmitted() > 4000
        assert pod.counters.get("rx_packets") == pod.counters.get("dispatched")

    def test_order_preserved_per_flow_under_plb(self):
        """The system-level ordering invariant: per-flow egress order
        matches ingress order even though packets cross 4 cores."""
        sim, rngs, _, pod = make_pod()
        egress_order = {}

        def track(packet, where, outcome):
            if packet.drop_reason is None:
                egress_order.setdefault(packet.flow, []).append(packet.uid)

        pod.subscribers.append(track)
        ingress_order = {}
        population = uniform_population(20, tenants=5)
        source = CbrSource(
            sim, rngs.stream("t"), lambda p: None, population, rate_pps=0
        )

        def ingest(packet):
            ingress_order.setdefault(packet.flow, []).append(packet.uid)
            pod.ingress(packet)

        source.sink = ingest
        source.set_rate(400_000)
        sim.run_until(20 * MS)
        assert sum(len(v) for v in egress_order.values()) > 5000
        for flow, uids in egress_order.items():
            assert uids == ingress_order[flow][: len(uids)]

    def test_latency_includes_nic_overhead(self):
        sim, _, _, pod = make_pod()
        packet = Packet(flow_for_tenant(1, 1), vni=1)
        pod.ingress(packet)
        sim.run_until(1 * MS)
        # ~8 us NIC + ~1 us service.
        assert packet.latency_ns > 8 * US
        assert packet.latency_ns < 15 * US

    def test_rss_mode_skips_reorder(self):
        sim, rngs, _, pod = make_pod(mode="rss")
        population = uniform_population(50, tenants=5)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=200_000)
        sim.run_until(10 * MS)
        assert pod.transmitted() > 1000
        assert pod.reorder_stats.admitted == 0
        assert pod.outcomes.get("rss", 0) == pod.transmitted()

    def test_protocol_packets_use_priority_path(self):
        sim, _, _, pod = make_pod()
        packet = Packet(FlowKey(1, 2, 179, 179, 6), kind=PacketKind.PROTOCOL)
        pod.ingress(packet)
        sim.run_until(1 * MS)
        assert pod.counters.get("rx_priority") == 1
        assert len(pod.protocol_delivered) == 1
        assert pod.transmitted() == 0  # not data traffic

    def test_stateful_packets_pinned_via_rss(self):
        sim, _, _, pod = make_pod()
        flow = FlowKey(5, 6, 7, 8, 17)
        for _ in range(10):
            pod.ingress(Packet(flow, kind=PacketKind.STATEFUL))
        sim.run_until(1 * MS)
        processed = [core.stats.processed for core in pod.cores]
        assert sorted(processed) == [0, 0, 0, 10]

    def test_plb_fallback_to_rss(self):
        sim, rngs, _, pod = make_pod()
        pod.nic.fallback_to_rss()
        population = uniform_population(50, tenants=5)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=200_000)
        sim.run_until(5 * MS)
        assert pod.reorder_stats.admitted == 0
        assert pod.nic.pkt_dir.default_data_path is DeliveryPath.RSS
        pod.nic.restore_plb()
        assert pod.nic.pkt_dir.default_data_path is DeliveryPath.PLB

    def test_rate_limiter_drops_before_cpu(self):
        sim, rngs, _, pod = make_pod(
            rate_limiter=None,
        )
        limiter = TwoStageRateLimiter(
            rngs.stream("limiter"), stage1_rate_pps=10_000, stage2_rate_pps=2_000
        )
        pod.nic.rate_limiter = limiter
        population = uniform_population(10, tenants=1)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=100_000)
        sim.run_until(100 * MS)
        assert pod.counters.get("rate_limited_drops") > 0
        # Sustained rate is stage1 + stage2 = 12 Kpps; token-bucket bursts
        # (10 ms worth per bucket, plus the pre_meter bucket created when
        # the flood is auto-promoted) add a constant on top.
        delivered_pps = pod.transmitted() / 0.1
        assert delivered_pps == pytest.approx(12_000, rel=0.25)
        assert delivered_pps >= 12_000

    def test_acl_drop_with_flag_releases_reorder(self):
        sim, rngs, _, pod = make_pod(acl_drop_probability=0.2, drop_flag_enabled=True)
        population = uniform_population(50, tenants=5)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=100_000)
        sim.run_until(50 * MS)
        stats = pod.reorder_stats
        assert pod.counters.get("cpu_acl_drops") > 100
        assert stats.drop_flag_releases > 100
        assert stats.hol_events == 0

    def test_acl_drop_without_flag_causes_hol(self):
        sim, rngs, _, pod = make_pod(acl_drop_probability=0.2, drop_flag_enabled=False)
        population = uniform_population(50, tenants=5)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=100_000)
        sim.run_until(50 * MS)
        stats = pod.reorder_stats
        assert stats.hol_events > 100
        assert stats.drop_flag_releases == 0

    def test_silent_drops_recovered_by_timeout(self):
        sim, rngs, _, pod = make_pod(silent_drop_probability=0.05)
        population = uniform_population(50, tenants=5)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=100_000)
        sim.run_until(50 * MS)
        stats = pod.reorder_stats
        assert pod.counters.get("cpu_silent_drops") > 50
        assert stats.timeout_releases > 50
        # The pipeline keeps flowing despite the holes.
        assert stats.in_order > 3000


class TestExits:
    def test_every_packet_leaves_once_departed_or_with_a_counted_reason(self):
        # 3x overload through 8-slot RX rings, a limiter, ACL and silent CPU
        # drops, a 1 ms FPGA stall and finally a crashed pod: every site fires.
        sim, rngs, _, pod = make_pod(
            data_cores=2, rx_capacity=8, acl_drop_probability=0.10,
            silent_drop_probability=0.05,
            custom_service=scaled_service(per_core_pps=50_000),
        )
        pod.nic.rate_limiter = TwoStageRateLimiter(
            rngs.stream("limiter"), stage1_rate_pps=60_000, stage2_rate_pps=15_000
        )
        emitted, exits = [], []
        pod.subscribers.append(lambda packet, where, outcome: exits.append(packet))

        def ingest(packet):
            emitted.append(packet)
            pod.ingress(packet)

        source = CbrSource(
            sim, rngs.stream("t"), ingest, uniform_population(40, tenants=3),
            rate_pps=300_000,
        )
        sim.schedule_at(10 * MS, pod.nic.set_fpga_stalled, True)
        sim.schedule_at(11 * MS, pod.nic.set_fpga_stalled, False)
        sim.run_until(30 * MS)
        source.set_rate(0)
        sim.run_until(32 * MS)      # drain: nothing may stay in flight
        assert pod.in_flight() == 0
        pod.crash()
        source.set_rate(300_000)
        sim.run_until(33 * MS)

        assert [p.uid for p in emitted] == sorted(p.uid for p in exits)
        dropped = collections.Counter(
            NicPipeline.DROP_COUNTERS[p.drop_reason]
            for p in emitted if p.departure_ns is None
        )
        assert set(dropped) == set(NicPipeline.DROP_COUNTERS.values()) - {
            "reorder_fifo_drops", "reorder_payload_gone",
        }
        assert dropped == {name: pod.counters.get(name) for name in dropped}
        # Everything else departed, and nothing that departed has a reason.
        unnamed = sum(p.drop_reason is None for p in emitted)
        assert unnamed == pod.counters.get("tx_packets") > 0


class TestPodConfigValidation:
    def test_reorder_queue_defaults(self):
        """1-8 queues proportional to cores (44-core pod -> 4)."""
        assert default_reorder_queue_count(44) == 4
        assert default_reorder_queue_count(20) == 2
        assert default_reorder_queue_count(5) == 1
        assert default_reorder_queue_count(200) == 8

    def test_unknown_service_rejected(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        with pytest.raises(ValueError, match="unknown service"):
            server.add_pod(PodConfig(name="x", data_cores=2, service="nope"))

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            PodConfig(name="x", data_cores=0)


class TestServerPlacement:
    def test_pods_fill_numa_nodes(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        a = server.add_pod(PodConfig(name="a", data_cores=44))
        b = server.add_pod(PodConfig(name="b", data_cores=44))
        assert a.numa_node != b.numa_node

    def test_capacity_exhaustion(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        server.add_pod(PodConfig(name="a", data_cores=44))
        server.add_pod(PodConfig(name="b", data_cores=44))
        with pytest.raises(ValueError):
            server.add_pod(PodConfig(name="c", data_cores=44))

    def test_remove_pod_frees_cores(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        server.add_pod(PodConfig(name="a", data_cores=44))
        server.remove_pod("a")
        assert server.free_cores(0) == 48
        server.add_pod(PodConfig(name="b", data_cores=44))

    def test_duplicate_name_rejected(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        server.add_pod(PodConfig(name="a", data_cores=2))
        with pytest.raises(ValueError):
            server.add_pod(PodConfig(name="a", data_cores=2))

    def test_explicit_numa_node(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        pod = server.add_pod(PodConfig(name="a", data_cores=4, numa_node=1))
        assert pod.numa_node == 1

    def test_cross_numa_memory_slows_service(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        local = server.add_pod(PodConfig(name="a", data_cores=2, numa_node=0))
        remote = server.add_pod(
            PodConfig(name="b", data_cores=2, numa_node=0, memory_node=1)
        )
        assert remote.cores[0].speed_factor > local.cores[0].speed_factor

    def test_pod_ready_delay_is_10s(self):
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(1))
        assert server.pod_ready_delay_ns() == 10 * 1_000_000_000
