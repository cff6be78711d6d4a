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
from repro.core.gateway import AlbatrossServer, PodConfig
from repro.core.nic import NicPipeline, NicPipelineConfig
from repro.core.ratelimit import TokenBucket, TwoStageRateLimiter
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig
from repro.cpu.core import CpuCore
from repro.faults.scenarios import run_scenario
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.rng import RngRegistry, derived_stream
from repro.sim.units import MS
from repro.workloads.generators import CbrSource, uniform_population


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
    return NicPipeline(sim, [core], NicPipelineConfig(), egress_fn=_noop)


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
        heapq.heappush(sim._heap, (50, sim._sequence, Event(50, _noop, ())))
        sim._sequence += 1
        sim._live_events += 1
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
        nic._san_injected = 1
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
        nic._san_injected = 2
        nic._transmit(packet, "rss")
        with pytest.raises(SanitizerViolation) as excinfo:
            nic._transmit(packet, "rss")
        assert excinfo.value.check == "packet-conservation"
        assert "transmitted twice" in str(excinfo.value)

    def test_settle_without_ingress_caught(self):
        install()
        sim = Simulator()
        nic = make_nic(sim)
        with pytest.raises(SanitizerViolation) as excinfo:
            nic._san_settle(make_packet(), "tx")
        assert excinfo.value.check == "packet-conservation"
        assert excinfo.value.detail["stage"] == "tx"

    def test_ledger_balances_on_clean_traffic(self):
        sanitizer = install()
        sim = Simulator()
        rngs = RngRegistry(seed=11)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(PodConfig(name="san-pod", data_cores=2))
        population = uniform_population(16, tenants=2)
        CbrSource(sim, rngs.stream("traffic"), pod.ingress, population,
                  rate_pps=100_000)
        sim.run_until(5 * MS)
        assert sanitizer.violations == 0
        assert pod.transmitted() > 0
        assert pod.nic.sanitizer_in_flight() >= 0


class TestReorderChecks:
    def test_out_of_order_release_caught(self):
        install()
        sim = Simulator()
        engine = ReorderEngine(sim, ReorderQueueConfig(queue_count=2), _noop)
        engine._note_in_order_release(0, 5)
        with pytest.raises(SanitizerViolation) as excinfo:
            engine._note_in_order_release(0, 3)
        violation = excinfo.value
        assert violation.check == "reorder-release-order"
        assert violation.detail == {
            "ordq": 0, "psn": 3, "last_psn": 5, "epoch": 0
        }

    def test_queues_track_release_order_independently(self):
        install()
        sim = Simulator()
        engine = ReorderEngine(sim, ReorderQueueConfig(queue_count=2), _noop)
        engine._note_in_order_release(0, 5)
        engine._note_in_order_release(1, 1)  # other queue: no violation
        engine._note_in_order_release(0, 6)

    def test_reset_rewinds_release_tracking(self):
        install()
        sim = Simulator()
        engine = ReorderEngine(sim, ReorderQueueConfig(queue_count=1), _noop)
        engine._note_in_order_release(0, 9)
        engine.reset()
        engine._note_in_order_release(0, 0)  # fresh epoch, PSN 0 is fine

    def test_corrupted_release_state_caught_in_live_run(self):
        install()
        sim = Simulator()
        rngs = RngRegistry(seed=7)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(PodConfig(name="san-plb", data_cores=2))
        population = uniform_population(16, tenants=2)
        CbrSource(sim, rngs.stream("traffic"), pod.ingress, population,
                  rate_pps=200_000)
        sim.run_until(2 * MS)
        reorder = pod.nic.reorder
        # Pretend every queue already released a huge PSN: the next real
        # in-order release must trip the check from inside the drain path.
        reorder._san_last_release = [1 << 40] * reorder.queue_count
        with pytest.raises(SanitizerViolation) as excinfo:
            sim.run_until(6 * MS)
        assert excinfo.value.check == "reorder-release-order"
        assert excinfo.value.trace, "violation must carry the event trace"


class TestQueueAndSramChecks:
    def test_rx_ring_overflow_tamper_caught(self):
        install()
        sim = Simulator()
        core = make_core(sim, capacity=4)
        for _ in range(5):  # bypass push() accounting
            core.rx_queue._items.append(make_packet())
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
    ], ids=" ".join)
    def test_sanitized_cli_stdout_is_byte_identical(self, argv, capsys):
        assert main(argv) == 0
        plain = capsys.readouterr().out
        sanitizer = install()       # the autouse fixture uninstalls it
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
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
