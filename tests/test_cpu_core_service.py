"""CPU core, service chain, jitter and queue tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import install, uninstall
from repro.cpu.cache import LruCacheModel
from repro.cpu.core import CpuCore, Verdict
from repro.cpu.queues import PacketQueue
from repro.cpu.service import (
    GatewayService,
    JitterModel,
    LookupSpec,
    MemoryTimings,
    ServiceChain,
    standard_services,
)
from repro.packet.flows import FlowKey, flow_for_tenant
from repro.packet.packet import Packet
from repro.sim import Simulator, US
from repro.sim.rng import RngRegistry
from tests.timer_restore import live_events


class TestMemoryTimings:
    def test_dram_scales_with_frequency(self):
        slow = MemoryTimings(memory_frequency_mhz=4800)
        fast = MemoryTimings(memory_frequency_mhz=5600)
        assert fast.dram_ns < slow.dram_ns
        assert slow.dram_ns == pytest.approx(95, rel=0.01)

    def test_expected_lookup_interpolates(self):
        timings = MemoryTimings()
        assert timings.expected_lookup_ns(1.0) == timings.l3_hit_ns
        assert timings.expected_lookup_ns(0.0) == timings.dram_ns
        mid = timings.expected_lookup_ns(0.5)
        assert timings.l3_hit_ns < mid < timings.dram_ns


class TestStandardServices:
    def test_four_services(self):
        services = standard_services()
        assert set(services) == {
            "VPC-VPC",
            "VPC-Internet",
            "VPC-IDC",
            "VPC-CloudService",
        }

    def test_vpc_internet_has_longest_chain(self):
        """§6: VPC-Internet runs more lookup tables than the others."""
        services = standard_services()
        internet = services["VPC-Internet"].lookup_count
        assert all(
            internet > service.lookup_count
            for name, service in services.items()
            if name != "VPC-Internet"
        )

    def test_tab3_calibration(self):
        """At 35% hit rate and 88 cores the model lands on Tab. 3."""
        expectations = {
            "VPC-VPC": 128.8,
            "VPC-Internet": 81.6,
            "VPC-IDC": 119.4,
            "VPC-CloudService": 126.3,
        }
        for name, expected in expectations.items():
            chain = ServiceChain(standard_services()[name], assumed_hit_rate=0.35)
            assert chain.per_core_mpps() * 88 == pytest.approx(expected, rel=0.01)


class TestServiceChain:
    def _service(self):
        return GatewayService("svc", 100, [LookupSpec("t", 1000, 64)])

    def test_analytic_mode_is_deterministic(self):
        chain = ServiceChain(self._service(), assumed_hit_rate=0.5)
        packet = Packet(FlowKey(1, 2, 3, 4, 17))
        assert chain.service_time_ns(packet) == chain.service_time_ns(packet)

    def test_simulated_mode_uses_cache(self):
        cache = LruCacheModel(capacity_bytes=1 << 20)
        chain = ServiceChain(self._service(), cache=cache)
        packet = Packet(FlowKey(1, 2, 3, 4, 17))
        cold = chain.service_time_ns(packet)
        warm = chain.service_time_ns(packet)
        assert warm < cold  # second lookup hits L3
        assert cache.stats.accesses == 2

    def test_same_flow_same_addresses(self):
        chain = ServiceChain(self._service())
        flow = FlowKey(1, 2, 3, 4, 17)
        assert list(chain.lookup_addresses(flow)) == list(chain.lookup_addresses(flow))

    def test_regions_do_not_overlap(self):
        service = GatewayService(
            "multi",
            100,
            [LookupSpec("a", 100, 64), LookupSpec("b", 100, 64)],
        )
        chain = ServiceChain(service)
        first_region_end = 100 * 64
        for address, _ in [list(chain.lookup_addresses(flow_for_tenant(t, 0)))[1] for t in range(20)]:
            assert address >= first_region_end

    def test_table_scale_shrinks_regions(self):
        full = ServiceChain(self._service(), table_scale=1.0)
        small = ServiceChain(self._service(), table_scale=0.01)
        assert small.region_end < full.region_end

    def test_per_core_mpps_matches_expected_ns(self):
        chain = ServiceChain(self._service(), assumed_hit_rate=0.35)
        assert chain.per_core_mpps() == pytest.approx(
            1e3 / chain.expected_service_ns(), rel=1e-9
        )


class TestJitter:
    def test_zero_probability_is_silent(self):
        jitter = JitterModel(
            RngRegistry(1).stream("j"), spike_probability=0.0, slow_branch_probability=0.0
        )
        assert all(jitter.draw_ns() == 0 for _ in range(100))

    def test_spikes_occur_at_configured_rate(self):
        jitter = JitterModel(
            RngRegistry(1).stream("j"), spike_probability=0.5, spike_mean_ns=1000
        )
        draws = [jitter.draw_ns() for _ in range(2000)]
        nonzero = sum(1 for value in draws if value > 0)
        assert 800 < nonzero < 1200

    def test_slow_branch_dominates(self):
        jitter = JitterModel(
            RngRegistry(1).stream("j"),
            spike_probability=0.0,
            slow_branch_probability=1.0,
            slow_branch_ns=1_000_000,
        )
        assert jitter.draw_ns() == 1_000_000


class ChainStub:
    def __init__(self, service_ns=1000):
        self.service_ns = service_ns

    def service_time_ns(self, packet):
        return self.service_ns


class TestCpuCore:
    def _core(self, sim, done, **kwargs):
        return CpuCore(sim, 0, ChainStub(), done, **kwargs)

    def test_processes_in_fifo_order(self):
        sim = Simulator()
        finished = []
        core = self._core(sim, lambda p, v, c: finished.append(p.uid))
        packets = [Packet(FlowKey(1, 2, 3, 4, 17)) for _ in range(5)]
        for packet in packets:
            core.enqueue(packet)
        sim.run()
        assert finished == [p.uid for p in packets]

    def test_service_time_advances_clock(self):
        sim = Simulator()
        times = []
        core = self._core(sim, lambda p, v, c: times.append(sim.now))
        core.enqueue(Packet(FlowKey(1, 2, 3, 4, 17)))
        core.enqueue(Packet(FlowKey(1, 2, 3, 4, 17)))
        sim.run()
        assert times == [1000, 2000]

    def test_rx_overflow_drops_silently(self):
        sim = Simulator()
        core = self._core(sim, lambda p, v, c: None, rx_capacity=2)
        packets = [Packet(FlowKey(1, 2, 3, 4, 17)) for _ in range(5)]
        accepted = [core.enqueue(p) for p in packets]
        # One in service + 2 queued; the rest dropped.
        assert accepted.count(True) == 3
        assert core.rx_dropped == 2

    def test_verdict_fn_routes_outcomes(self):
        sim = Simulator()
        verdicts = []
        core = CpuCore(
            sim,
            0,
            ChainStub(),
            lambda p, v, c: verdicts.append(v),
            verdict_fn=lambda p: Verdict.DROP_ACL,
        )
        core.enqueue(Packet(FlowKey(1, 2, 3, 4, 17)))
        sim.run()
        assert verdicts == [Verdict.DROP_ACL]
        assert core.stats.dropped == 1

    def test_speed_factor_scales_service(self):
        sim = Simulator()
        times = []
        core = CpuCore(
            sim, 0, ChainStub(1000), lambda p, v, c: times.append(sim.now),
            speed_factor=2.0,
        )
        core.enqueue(Packet(FlowKey(1, 2, 3, 4, 17)))
        sim.run()
        assert times == [2000]

    def test_stall_injection_delays_next_packet(self):
        sim = Simulator()
        times = []
        core = self._core(sim, lambda p, v, c: times.append(sim.now))
        core.inject_stall(5000)
        core.enqueue(Packet(FlowKey(1, 2, 3, 4, 17)))
        sim.run()
        assert times == [6000]
        assert core.stats.stall_ns == 5000

    def test_utilization_accounting(self):
        sim = Simulator()
        core = self._core(sim, lambda p, v, c: None)
        for _ in range(3):
            core.enqueue(Packet(FlowKey(1, 2, 3, 4, 17)))
        sim.run()
        assert core.stats.busy_ns == 3000
        assert core.stats.utilization(6000) == pytest.approx(0.5)


class _RingDrivenCore(CpuCore):
    """The reference spelling of ``enqueue``: every packet goes through the
    RX ring's ``push`` and leaves it by ``pop``, idle core or not."""

    def enqueue(self, packet):
        accepted = self.rx_queue.push(packet)
        if accepted and not self._busy:
            self._start_next()
        return accepted


_CORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(1, 4)),
        st.tuples(st.just("advance"), st.sampled_from([0, 300, 1000, 2500])),
        st.tuples(st.just("fail"), st.sampled_from([None, 700, 3000])),
        st.tuples(st.just("recover"), st.just(0)),
        st.tuples(st.just("stall"), st.sampled_from([200, 1500])),
    ),
    max_size=30,
)


class _CoreSide:
    """One core on its own simulator, logging ``(now, packet number)`` per
    completion and the ``accepted`` flag of every delivery."""

    def __init__(self, cls):
        self.sim = Simulator()
        self.log = []
        self.sent = 0
        self.core = cls(self.sim, 0, ChainStub(1000), self._done, rx_capacity=3)

    def _done(self, packet, verdict, core):
        self.log.append((self.sim.now, packet.size))

    def apply(self, kind, value):
        core = self.core
        if kind == "enqueue":
            for _ in range(value):
                self.sent += 1      # the packet number rides in its size
                self.log.append(core.enqueue(Packet(FlowKey(1, 2, 3, 4, 17), size=self.sent)))
        elif kind == "advance":
            self.sim.run_until(self.sim.now + value)
        elif kind == "fail":
            core.fail(value)
        elif kind == "recover":
            core.recover()
        else:
            core.inject_stall(value)

    def state(self):
        core, sim = self.core, self.sim
        return (
            core.rx_queue.checkpoint(), core.stats.checkpoint(), len(core.rx_queue),
            core.busy, sim.now, live_events(sim), sim.events_processed, self.log,
        )


class TestIdleCoreStartsWithoutTheRingRoundTrip:
    """An idle core serves a packet at once; the ring's counters, the core's
    stats and every completion must match the push/pop spelling."""

    @pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "sanitized"])
    @settings(max_examples=150, deadline=None)
    @given(ops=_CORE_OPS)
    def test_same_ring_counters_stats_and_completions(self, sanitized, ops):
        if sanitized:
            install()
        try:
            native, spelled = _CoreSide(CpuCore), _CoreSide(_RingDrivenCore)
        finally:
            uninstall()     # the sanitizer is resolved at construction
        for kind, value in ops:
            for side in (native, spelled):
                side.apply(kind, value)
            assert native.state() == spelled.state()
        for side in (native, spelled):
            side.apply("recover", 0)
            side.sim.run()
        assert native.state() == spelled.state()
        assert native.core.rx_queue.enqueued == native.core.stats.processed


class TestPacketQueue:
    def test_fifo(self):
        queue = PacketQueue(4)
        queue.push("a")
        queue.push("b")
        assert queue.pop() == "a"
        assert queue.pop() == "b"
        assert queue.pop() is None

    def test_drop_accounting(self):
        queue = PacketQueue(1)
        assert queue.push("a")
        assert not queue.push("b")
        assert queue.dropped == 1
        assert queue.enqueued == 1

    def test_high_watermark(self):
        queue = PacketQueue(10)
        for item in range(7):
            queue.push(item)
        queue.pop()
        assert queue.high_watermark == 7

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PacketQueue(0)

    def test_popping_everything_empties_the_ring_and_frees_its_room(self):
        queue = PacketQueue(3)
        for item in range(4):
            queue.push(item)
        assert [queue.pop() for _ in range(4)] == [0, 1, 2, None]
        assert len(queue) == 0
        assert all(queue.push(item) for item in range(3))
        assert (queue.enqueued, queue.dropped, queue.high_watermark) == (6, 1, 3)
