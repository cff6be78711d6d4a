"""Runtime-sanitizer tests: injected violations are caught with a trace,
and clean runs stay clean (and byte-identical to unsanitized runs)."""

import heapq
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerViolation,
    get_sanitizer,
    install,
    uninstall,
)
from repro.cli import main
from repro.controlplane import snapshot_bytes
from repro.core.gateway import AlbatrossServer
from repro.core.nic import NicPipeline
from repro.core.ratelimit import TokenBucket, TwoStageRateLimiter
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig
from repro.cpu.core import CpuCore
from repro.faults.scenarios import run_scenario
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet, PacketKind
from repro.scenarios import PodSpec
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RngRegistry, derived_stream
from repro.sim.units import MS
from repro.workloads.generators import CbrSource, uniform_population
from tests.reorder_admission import Admitter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _clean_sanitizer():
    """Never leak an installed sanitizer into other tests."""
    yield
    uninstall()


def _noop(*_args):
    return None


def make_packet():
    return Packet(FlowKey(0x0A000001, 0x0A000002, 1234, 80, 17), vni=7)


class _FixedChain:
    def service_time_ns(self, _packet):
        return 100


def make_core(sim, capacity=4):
    return CpuCore(sim, 0, _FixedChain(), completion_fn=_noop,
                   rx_capacity=capacity)


def make_nic(sim):
    core = make_core(sim, capacity=64)
    return NicPipeline(sim, [core], ReorderQueueConfig(), egress_fn=_noop)


class TestEngineChecks:
    def test_backdated_schedule_at_caught_with_trace(self):
        install()
        sim = Simulator()
        sim.schedule(10, _noop)
        sim.run()
        with pytest.raises(SanitizerViolation) as excinfo:
            sim.schedule_at(5, _noop)
        violation = excinfo.value
        assert violation.check == "event-causality"
        assert violation.detail["time_ns"] == 5
        assert violation.detail["now_ns"] == 10
        assert violation.trace, "the executed event must appear in the trace"
        assert "recent events (oldest first):" in str(violation)

    def test_negative_delay_caught(self):
        install()
        sim = Simulator()
        with pytest.raises(SanitizerViolation) as excinfo:
            sim.schedule(-1, _noop)
        assert excinfo.value.check == "event-causality"

    def test_without_sanitizer_simulation_error_is_preserved(self):
        assert get_sanitizer() is None
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, _noop)

    def test_monotonicity_tamper_caught(self):
        install()
        sim = Simulator()
        sim.schedule(100, _noop)
        assert sim.step()
        assert sim.now == 100
        # Smuggle an event behind the clock, bypassing schedule_at's guard.
        heapq.heappush(sim._heap, (50, sim.next_seq(), _noop, (), None))
        with pytest.raises(SanitizerViolation) as excinfo:
            sim.step()
        assert excinfo.value.check == "simtime-monotonicity"

    def test_clean_run_records_events_not_violations(self):
        sanitizer = install()
        sim = Simulator()
        for delay in (10, 20, 30):
            sim.schedule(delay, _noop)
        sim.run()
        assert sanitizer.violations == 0
        assert sanitizer.events_traced == 3
        assert len(sanitizer.trace) == 3


class TestPacketConservation:
    def test_dropped_packet_leak_caught(self):
        install()
        sim = Simulator()
        nic = make_nic(sim)
        packet = make_packet()
        packet.drop_reason = "rate_limit_drop_meter"
        nic.counters.incr("rx_packets")
        with pytest.raises(SanitizerViolation) as excinfo:
            nic._transmit(packet, "rss")
        violation = excinfo.value
        assert violation.check == "packet-conservation"
        assert "leaked to the wire" in str(violation)
        assert violation.detail["uid"] == packet.uid

    def test_double_transmit_caught(self):
        install()
        sim = Simulator()
        nic = make_nic(sim)
        packet = make_packet()
        nic.counters.incr("rx_packets", 2)  # the counters alone would balance
        nic._transmit(packet, "rss")
        with pytest.raises(SanitizerViolation) as excinfo:
            nic._transmit(packet, "rss")
        assert excinfo.value.check == "packet-conservation"
        assert "transmitted twice" in str(excinfo.value)

    def test_settle_without_ingress_caught(self):
        """A terminal counter bumped with ``rx_packets`` too low."""
        install()
        sim = Simulator()
        nic = make_nic(sim)
        with pytest.raises(SanitizerViolation) as excinfo:
            nic._transmit(make_packet(), "rss")
        assert excinfo.value.check == "packet-conservation"
        assert excinfo.value.detail["stage"] == "tx"
        assert nic.in_flight() == -1

    @pytest.mark.parametrize("kind, stage", [
        (PacketKind.DATA, "rx_queue_overflow"),
        (PacketKind.PROTOCOL, "priority_handoff"),
    ])
    def test_every_settle_point_reads_the_counters(self, kind, stage):
        install()
        sim = Simulator()
        nic = make_nic(sim)
        nic.counters.incr("tx_packets")  # a phantom settle nothing accounts for
        nic.cores[0].rx_queue.capacity = 0  # any data packet overflows the ring
        packet = make_packet()
        packet.kind = kind
        with pytest.raises(SanitizerViolation) as excinfo:
            nic.ingress(packet)
            # Failed after dispatch: the packet meets the ring instead of
            # going straight into service on an idle core.
            nic.cores[0].fail()
            sim.run()
        assert excinfo.value.check == "packet-conservation"
        assert excinfo.value.detail == {"uid": packet.uid, "stage": stage}

    def test_ledger_balances_on_clean_traffic(self):
        sanitizer = install()
        sim = Simulator()
        rngs = RngRegistry(seed=11)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(PodSpec(name="san-pod", data_cores=2))
        population = uniform_population(16, tenants=2)
        CbrSource(sim, rngs.stream("traffic"), pod.ingress, population,
                  rate_pps=100_000)
        sim.run_until(5 * MS)
        assert sanitizer.violations == 0
        assert pod.transmitted() > 0
        assert pod.nic.in_flight() >= 0


class ReorderHarness:
    """A sanitized reorder engine driven directly (no CPU model)."""

    def __init__(self, queues):
        self.sanitizer = install()
        self.sim = Simulator()
        self.engine = ReorderEngine(
            self.sim, ReorderQueueConfig(queue_count=queues), _noop
        )
        self.admit = Admitter(self.engine).admit

    def release(self, ordq, count):
        """Admit and write back ``count`` packets: ``count`` in-order releases."""
        for _ in range(count):
            self.engine.writeback(self.admit(ordq))


class TestReorderChecks:
    def test_out_of_order_release_caught(self):
        h = ReorderHarness(queues=2)
        h.admit(0)                       # PSN 0 never returns from the CPU
        h.engine.writeback(h.admit(0))   # PSN 1 waits in BUF behind it
        # Lose the FIFO head without advancing the head pointer: the next
        # drain finds PSN 1 ready at the head while head_ptr still says 0.
        h.engine._queues[0].fifo.popleft()
        with pytest.raises(SanitizerViolation) as excinfo:
            h.sim.run()                  # the head-timeout event drains
        violation = excinfo.value
        assert violation.check == "reorder-release-order"
        assert violation.detail == {
            "ordq": 0, "psn": 1, "head_ptr": 0, "epoch": 0
        }

    def test_queues_track_release_order_independently(self):
        h = ReorderHarness(queues=2)
        h.release(0, 6)
        h.release(1, 1)  # other queue starts at PSN 0: no violation
        h.release(0, 1)
        assert h.engine.stats.in_order == 8
        assert h.sanitizer.violations == 0

    def test_reset_rewinds_release_tracking(self):
        h = ReorderHarness(queues=1)
        h.release(0, 10)
        h.engine.reset()
        h.release(0, 1)  # fresh epoch, PSN 0 is fine
        assert h.engine.stats.in_order == 11
        assert h.sanitizer.violations == 0

    def test_corrupted_release_state_caught_in_live_run(self):
        install()
        sim = Simulator()
        rngs = RngRegistry(seed=7)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(PodSpec(name="san-plb", data_cores=2))
        population = uniform_population(16, tenants=2)
        CbrSource(sim, rngs.stream("traffic"), pod.ingress, population,
                  rate_pps=200_000)
        sim.run_until(2 * MS)
        # Rewind every head pointer by one 12-bit wrap: the legal check
        # (low 12 bits only) still admits writebacks, so the next real
        # in-order release must trip the check from inside the drain path.
        for queue in pod.nic.reorder._queues:
            queue.head_ptr -= 4096
        with pytest.raises(SanitizerViolation) as excinfo:
            sim.run_until(6 * MS)
        assert excinfo.value.check == "reorder-release-order"
        assert excinfo.value.trace, "violation must carry the event trace"


class TestSnapshotsIgnoreTheSanitizer:
    @staticmethod
    def _drained_pod_snapshot():
        sim = Simulator()
        rngs = RngRegistry(seed=7)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(
            PodSpec(name="snap-plb", data_cores=2, reorder_queues=1)
        )
        source = CbrSource(sim, rngs.stream("traffic"), pod.ingress,
                           uniform_population(16, tenants=2),
                           rate_pps=1_000_000)
        sim.run_until(12 * MS)
        source.stop()
        sim.run_until(13 * MS)
        assert pod.quiescent()
        # Five-digit PSNs: wider than the ``null`` a plain run used to
        # write where a sanitized one wrote its last released PSN.
        assert pod.nic.reorder._queues[0].head_ptr >= 10_000
        return snapshot_bytes(pod.checkpoint())

    def test_pod_snapshot_bytes_identical_with_and_without_sanitizer(self):
        plain = self._drained_pod_snapshot()
        sanitizer = install()
        assert self._drained_pod_snapshot() == plain
        assert sanitizer.checks > 10_000


class TestQueueAndSramChecks:
    def test_rx_ring_overflow_tamper_caught(self):
        install()
        sim = Simulator()
        core = make_core(sim, capacity=4)
        for _ in range(5):  # bypass push() accounting
            core.rx_queue.packets.append(make_packet())
        with pytest.raises(SanitizerViolation) as excinfo:
            core.enqueue(make_packet())
        violation = excinfo.value
        assert violation.check == "finite-queue-bound"
        assert violation.detail["occupancy"] == 5
        assert violation.detail["capacity"] == 4

    def test_sram_budget_overflow_caught(self):
        install()
        limiter = TwoStageRateLimiter(
            derived_stream("test.sampler", seed=1),
            color_entries=8, meter_entries=8, pre_entries=4,
        )
        for index in range(9):  # one more bucket than the table holds
            limiter._color[index] = TokenBucket(1_000)
        with pytest.raises(SanitizerViolation) as excinfo:
            limiter.admit(1, 0)
        violation = excinfo.value
        assert violation.check == "sram-budget"
        assert violation.detail == {"live": 9, "entries": 8}

    def test_sram_budget_clean_within_limits(self):
        sanitizer = install()
        limiter = TwoStageRateLimiter(
            derived_stream("test.sampler", seed=1),
            color_entries=8, meter_entries=8, pre_entries=4,
        )
        for vni in range(32):  # 32 VNIs fold into 8 color slots
            limiter.admit(vni, vni * 1_000)
        assert sanitizer.violations == 0


class TestLifecycle:
    def test_install_uninstall(self):
        assert get_sanitizer() is None
        sanitizer = install()
        assert get_sanitizer() is sanitizer
        uninstall()
        assert get_sanitizer() is None

    def test_install_accepts_custom_instance(self):
        custom = Sanitizer(trace_depth=2)
        assert install(custom) is custom
        assert get_sanitizer() is custom
        custom.record_event(1, "a")
        custom.record_event(2, "b")
        custom.record_event(3, "c")
        assert list(custom.trace) == [(2, "b"), (3, "c")]
        assert custom.events_traced == 3

    def test_environment_variable_installs_at_import(self):
        # REPRO_SANITIZE is read once, at import: probe a fresh process.
        probe = "import repro.analysis as a; print(a.get_sanitizer() is not None)"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "REPRO_SANITIZE": "1"},
            timeout=60,
        )
        assert result.stdout.strip() == "True", result.stderr

    def test_components_cache_at_construction(self):
        install()
        sim = Simulator()
        uninstall()
        # The already-built simulator keeps checking...
        with pytest.raises(SanitizerViolation):
            sim.schedule(-1, _noop)
        # ...while a freshly built one reverts to plain errors.
        with pytest.raises(SimulationError) as excinfo:
            Simulator().schedule(-1, _noop)
        assert not isinstance(excinfo.value, SanitizerViolation)

    def test_summary_format(self):
        sanitizer = Sanitizer()
        sanitizer.ensure(True, "x", "fine")
        assert sanitizer.summary() == (
            "sanitizer: 1 checks, 0 violations, 0 events traced"
        )

    def test_violation_message_structure(self):
        sanitizer = Sanitizer()
        sanitizer.record_event(42, "Foo.bar")
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.ensure(False, "my-check", "it broke", answer=42)
        text = str(excinfo.value)
        assert "[my-check] it broke" in text
        assert "detail: answer=42" in text
        assert "t=42 Foo.bar" in text
        assert sanitizer.violations == 1


class TestScenarioIntegration:
    @pytest.mark.parametrize("argv", [
        ["faults", "pod-crash-reschedule", "--quick"],
        ["simulate", "--cores", "2", "--duration-ms", "20"],
        ["migrate", "all", "--quick", "--seed", "7"],
        # Full mode: released PSNs reach five digits, which a snapshot
        # that recorded them (or ``null`` when unchecked) cannot hide.
        ["migrate", "rebalance-hot-pod", "--seed", "7"],
        ["faults", "all", "--quick", "--seed", "7"],
        ["experiment", "fig15"],
        ["inventory"],
        ["lint", "--list-rules"],
        ["runs", "compare", "benchmarks/trajectory/BENCH_25.json",
         "benchmarks/trajectory/BENCH_26.json"],
    ], ids=" ".join)
    def test_sanitized_cli_stdout_is_byte_identical(self, argv, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert plain
        sanitizer = install()       # the autouse fixture uninstalls it
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        if argv[0] in ("faults", "simulate", "migrate"):
            assert sanitizer.checks > 0     # the second run really was checked

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_seeded_chaos_plan_has_zero_violations(self, seed):
        sanitizer = install()
        try:
            report = run_scenario("chaos", seed=seed, quick=True)
        finally:
            uninstall()
        assert sanitizer.violations == 0
        assert sanitizer.checks > 0
        assert sanitizer.events_traced > 0
        assert report.get("faults_injected") >= 1
