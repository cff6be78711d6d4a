"""Tests for FPGA session offload and PCIe/port capacity models."""

import pytest

from repro.core.gateway import AlbatrossServer
from repro.core.offload import (
    FpgaSessionOffload,
    offload_throughput_mpps,
)
from repro.core.pcie import PcieLinkModel, PortCapacityModel, SPLIT_HEADER_BYTES
from repro.cpu.stateful import write_heavy_nf
from repro.packet.flows import FlowKey, flow_for_tenant
from repro.scenarios import PodSpec
from repro.sim import MS, RngRegistry, SECOND, Simulator
from repro.workloads.generators import CbrSource, uniform_population


class TestSessionOffloadTable:
    def _offload(self, **kwargs):
        sim = Simulator()
        defaults = dict(capacity=8, install_after_packets=2)
        defaults.update(kwargs)
        return sim, FpgaSessionOffload(sim, **defaults)

    def test_miss_before_install(self):
        sim, offload = self._offload()
        flow = FlowKey(1, 2, 3, 4, 17)
        assert not offload.lookup(flow)
        assert offload.slow_path_misses == 1

    def test_install_after_threshold_packets(self):
        sim, offload = self._offload(install_after_packets=3)
        flow = FlowKey(1, 2, 3, 4, 17)
        assert not offload.note_cpu_packet(flow)
        assert not offload.note_cpu_packet(flow)
        assert offload.note_cpu_packet(flow)  # third packet installs
        assert offload.lookup(flow)

    def test_hit_after_install(self):
        sim, offload = self._offload()
        flow = FlowKey(1, 2, 3, 4, 17)
        offload.install(flow)
        assert offload.lookup(flow)
        assert offload.fast_path_hits == 1
        assert offload.hit_rate == 1.0

    def test_capacity_bound(self):
        sim, offload = self._offload(capacity=2)
        assert offload.install(FlowKey(1, 2, 3, 4, 17))
        assert offload.install(FlowKey(2, 2, 3, 4, 17))
        assert not offload.install(FlowKey(3, 2, 3, 4, 17))
        assert offload.install_rejections == 1

    def test_idle_eviction_makes_room(self):
        sim, offload = self._offload(capacity=1, idle_timeout_ns=1 * MS)
        stale = FlowKey(1, 2, 3, 4, 17)
        offload.install(stale)
        sim.run_until(5 * MS)  # stale session ages past the timeout
        assert offload.install(FlowKey(2, 2, 3, 4, 17))
        assert offload.evictions == 1
        assert not offload.remove(stale)

    def test_lookup_expires_idle_sessions(self):
        sim, offload = self._offload(idle_timeout_ns=1 * MS)
        flow = FlowKey(1, 2, 3, 4, 17)
        offload.install(flow)
        sim.run_until(5 * MS)
        assert not offload.lookup(flow)
        assert offload.evictions == 1

    def test_bulk_expiry(self):
        sim, offload = self._offload(idle_timeout_ns=1 * MS)
        for index in range(4):
            offload.install(FlowKey(index, 2, 3, 4, 17))
        sim.run_until(5 * MS)
        assert offload.expire_idle() == 4
        assert len(offload) == 0

    def test_explicit_remove(self):
        sim, offload = self._offload()
        flow = FlowKey(1, 2, 3, 4, 17)
        offload.install(flow)
        assert offload.remove(flow)
        assert not offload.lookup(flow)

    def test_reinstall_is_a_no_op(self):
        sim, offload = self._offload(capacity=1)
        flow = FlowKey(1, 2, 3, 4, 17)
        assert offload.install(flow)
        assert offload.install(flow)  # present: no eviction, no rejection
        assert (offload.installs, offload.install_rejections) == (1, 0)
        assert not offload.note_cpu_packet(flow)

    def test_hit_rate_without_traffic_is_zero(self):
        sim, offload = self._offload()
        assert offload.hit_rate == 0.0

    def _used_table(self):
        sim, offload = self._offload(capacity=4, idle_timeout_ns=2 * MS)
        for index in range(3):
            offload.install(FlowKey(index, 2, 3, 4, 17))
        sim.run_until(1 * MS)
        offload.lookup(FlowKey(1, 2, 3, 4, 17))
        offload.lookup(FlowKey(9, 2, 3, 4, 17))
        offload.note_cpu_packet(FlowKey(7, 2, 3, 4, 17))
        return sim, offload

    def test_checkpoint_is_plain_json(self):
        import json

        _, offload = self._used_table()
        snapshot = offload.checkpoint()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert [entry[0] for entry in snapshot["sessions"]] == [
            [index, 2, 3, 4, 17] for index in range(3)
        ]
        assert snapshot["cpu_seen"] == [[[7, 2, 3, 4, 17], 1]]

    def test_restore_round_trip(self):
        _, offload = self._used_table()
        snapshot = offload.checkpoint()
        sim, other = self._offload(capacity=4, idle_timeout_ns=2 * MS)
        other.install(FlowKey(99, 2, 3, 4, 17))  # replaced, not merged
        other.restore(snapshot)
        assert other.checkpoint() == snapshot
        assert len(other) == 3
        assert other.hit_rate == offload.hit_rate

    def test_restored_table_evicts_the_same_session(self):
        sim, offload = self._used_table()
        sim_copy, copy = self._offload(capacity=4, idle_timeout_ns=2 * MS)
        sim_copy.run_until(sim.now)
        copy.restore(offload.checkpoint())
        for table, clock in ((offload, sim), (copy, sim_copy)):
            table.install(FlowKey(5, 2, 3, 4, 17))  # fills the fourth slot
            clock.run_until(4 * MS)
            assert table.install(FlowKey(6, 2, 3, 4, 17))
        assert offload.checkpoint() == copy.checkpoint()
        # Flow 0 was installed first and never hit: it was the stalest.
        assert FlowKey(0, 2, 3, 4, 17) not in {
            FlowKey(*entry[0]) for entry in copy.checkpoint()["sessions"]
        }


class TestSessionOffloadPipeline:
    def test_established_flows_bypass_cpu(self):
        sim = Simulator()
        rngs = RngRegistry(seed=29)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(PodSpec(name="gw", data_cores=2))
        pod.nic.session_offload = FpgaSessionOffload(sim, capacity=1024)
        population = uniform_population(20, tenants=4)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=200_000)
        sim.run_until(20 * MS)
        fast = pod.counters.get("offload_fast_path")
        cpu = sum(core.stats.processed for core in pod.cores)
        # Once the 20 flows are installed, virtually everything is fast path.
        assert fast > 10 * cpu
        assert pod.transmitted() == pytest.approx(fast + cpu, abs=50)
        # Fast-path latency is microseconds, far below the DMA path.
        assert pod.nic.session_offload.hit_rate > 0.9

    def test_offload_analytic_recovers_scaling(self):
        heavy = write_heavy_nf()
        plain = heavy.throughput_mpps(32, "plb")
        offloaded = offload_throughput_mpps(heavy, 32, offload_hit_rate=0.99)
        assert offloaded > 10 * plain

    def test_offload_hit_rate_validation(self):
        with pytest.raises(ValueError):
            offload_throughput_mpps(write_heavy_nf(), 4, offload_hit_rate=1.5)

    def test_full_offload_is_fast_path_bound(self):
        rate = offload_throughput_mpps(
            write_heavy_nf(), 4, offload_hit_rate=1.0, fast_path_pps=50e6
        )
        assert rate == 50.0


class TestPcieModel:
    def test_split_caps_header_bytes(self):
        link = PcieLinkModel()
        full = link.bytes_for_packet(8500, split=False)
        split = link.bytes_for_packet(8500, split=True)
        assert split < full / 10
        assert split == SPLIT_HEADER_BYTES + 16 + 32

    def test_small_packets_not_split_smaller(self):
        link = PcieLinkModel()
        assert link.bytes_for_packet(64, split=True) == link.bytes_for_packet(
            64, split=False
        )

    def test_max_pps_jumbo_speedup(self):
        """Appendix A: split mode matters most for jumbo frames."""
        link = PcieLinkModel()
        assert link.split_speedup(8500) > 20
        assert link.split_speedup(256) < 3

    def test_recording_and_utilization(self):
        link = PcieLinkModel(gbps=8)  # 1 GB/s
        link.record(1000, split=False)
        assert link.bytes_transferred == 1000 + 16 + 32
        # 1048 bytes over 1 us at 1 GB/s ~ 1048/1000.
        assert link.utilization(1_000) == pytest.approx(1.048)

    def test_max_pps_directions(self):
        link = PcieLinkModel()
        one_way = link.max_pps(256, directions=1)
        both = link.max_pps(256, directions=2)
        assert one_way == pytest.approx(2 * both)


class TestPortCapacity:
    def test_line_rate(self):
        port = PortCapacityModel(gbps=100)
        # 100G with 256B frames + 20B overhead: ~45.3 Mpps.
        assert port.line_rate_pps(256) == pytest.approx(45.3e6, rel=0.01)

    def test_no_contention_passes_everything(self):
        port = PortCapacityModel()
        data, protocol = port.delivery(1e6, 1000)
        assert data == 1e6
        assert protocol == 1000

    def test_unprotected_overload_drops_protocol(self):
        """§2.1: 1st-gen indiscriminate drops break the control plane."""
        port = PortCapacityModel(priority_protected=False)
        capacity = port.line_rate_pps(256)
        data, protocol = port.delivery(capacity * 2, 1000)
        assert protocol == pytest.approx(500, rel=0.02)
        assert data < capacity

    def test_protected_overload_keeps_protocol(self):
        port = PortCapacityModel(priority_protected=True)
        capacity = port.line_rate_pps(256)
        data, protocol = port.delivery(capacity * 2, 1000)
        assert protocol == 1000
        assert data <= capacity
