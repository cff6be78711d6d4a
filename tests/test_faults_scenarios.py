"""End-to-end assertions for the named fault-injection scenarios.

Each scenario is run once (module-scoped fixtures; they are full
simulations) and the tests check the graceful-degradation contract the
paper claims: detection within the configured budget, bounded blackout,
throughput back within the steady-state tracker's tolerance of the
pre-fault baseline, and -- for the PLB data path -- no out-of-per-flow-order
in-order release during recovery.
"""

import pytest

from repro.core.gateway import AlbatrossServer
from repro.core.plb.reorder import TxOutcome
from repro.core.watchdog import FpgaWatchdog
from repro.faults.injector import FaultInjector, FaultTargets
from repro.faults.plan import Fault, FaultKind, FaultPlan
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.scenarios import PodSpec
from repro.sim import MS, Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.generators import CbrSource, uniform_population

# Detection must land within the BFD budget (multiplier * interval) plus
# one probe phase and the propagation latency.
BFD_MARGIN_MS = 51.0


@pytest.fixture(scope="module")
def pod_crash_report():
    return run_scenario("pod-crash-reschedule", seed=7, quick=True)


@pytest.fixture(scope="module")
def core_stall_report():
    return run_scenario("core-stall-plb-vs-rss", seed=7, quick=True)


@pytest.fixture(scope="module")
def bfd_flap_report():
    return run_scenario("bfd-flap", seed=7, quick=True)


@pytest.fixture(scope="module")
def limiter_report():
    return run_scenario("limiter-reset", seed=7, quick=True)


class TestScenarioRegistry:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            run_scenario("warp-core-breach")

    def test_every_scenario_reports_headline_metrics(
        self, pod_crash_report, core_stall_report, bfd_flap_report, limiter_report
    ):
        for report in (
            pod_crash_report, core_stall_report, bfd_flap_report, limiter_report
        ):
            assert "detection_latency_ms" in report.values
            assert "blackout_drops" in report.values
            assert "time_to_steady_state_ms" in report.values


class TestPodCrashReschedule:
    def test_detected_within_bfd_budget(self, pod_crash_report):
        detection = pod_crash_report.values["detection_latency_ms"]
        budget = pod_crash_report.values["bfd_detect_budget_ms"]
        assert 0 < detection <= budget + BFD_MARGIN_MS

    def test_blackout_is_bounded_by_recovery_window(self, pod_crash_report):
        # 20k pps with a ~400 ms outage: the blackhole must be real but
        # cannot exceed the offered load over the recovery window.
        drops = pod_crash_report.values["blackout_drops"]
        assert drops > 0
        recovery_ms = pod_crash_report.values["recovery_latency_ms"]
        assert drops <= 20_000 * (recovery_ms / 1000.0) * 1.05

    def test_throughput_back_within_tolerance(self, pod_crash_report):
        # The steady-state tracker only stamps a window whose rate is
        # within 5% of the pre-fault baseline; reaching it IS the claim.
        steady = pod_crash_report.values["time_to_steady_state_ms"]
        assert isinstance(steady, float)
        assert steady > pod_crash_report.values["detection_latency_ms"]

    def test_rescheduled_away_from_failed_server(self, pod_crash_report):
        assert pod_crash_report.values["rescheduled_to"].startswith("server-1")


class TestCoreStallPlbVsRss:
    def test_plb_detects_via_doorbell_rss_never_does(self, core_stall_report):
        assert core_stall_report.values["plb_detection_latency_ms"] < 1.0
        # RSS only "notices" when the core heals: detection == duration.
        assert core_stall_report.values["rss_detection_latency_ms"] >= 200.0

    def test_plb_spray_absorbs_lost_core(self, core_stall_report):
        offered = core_stall_report.values["offered_during_stall"]
        delivered = core_stall_report.values["plb_delivered_during_stall"]
        assert delivered >= offered * 0.95
        assert core_stall_report.values["plb_rx_queue_drops"] == 0

    def test_rss_shows_hol_blocking_by_contrast(self, core_stall_report):
        assert core_stall_report.values["rss_rx_queue_drops"] > 0
        assert (
            core_stall_report.values["rss_delivered_during_stall"]
            < core_stall_report.values["plb_delivered_during_stall"]
        )

    def test_both_modes_return_to_steady_state(self, core_stall_report):
        assert isinstance(core_stall_report.values["plb_time_to_steady_state_ms"], float)
        assert isinstance(core_stall_report.values["rss_time_to_steady_state_ms"], float)


class TestBfdFlap:
    def test_detected_within_three_probe_intervals(self, bfd_flap_report):
        detection = bfd_flap_report.values["detection_latency_ms"]
        budget = bfd_flap_report.values["bfd_detect_budget_ms"]
        assert budget == 150.0  # paper-faithful 3 x 50 ms
        assert 0 < detection <= budget + BFD_MARGIN_MS

    def test_probes_lost_during_blackout(self, bfd_flap_report):
        assert bfd_flap_report.values["blackout_drops"] > 0
        assert bfd_flap_report.values["blackout_drops"] == bfd_flap_report.values["probes_lost"]

    def test_sessions_recover_and_steady(self, bfd_flap_report):
        assert bfd_flap_report.values["sessions_up"] is True
        assert bfd_flap_report.values["down_events"] >= 2  # both endpoints
        assert isinstance(bfd_flap_report.values["time_to_steady_state_ms"], float)


class TestLimiterReset:
    def test_detection_is_synchronous(self, limiter_report):
        assert limiter_report.values["detection_latency_ms"] == 0.0
        assert limiter_report.values["sram_resets"] == 1

    def test_transient_over_admission_not_drops(self, limiter_report):
        # The failure mode of a bucket wipe is letting traffic THROUGH:
        # a burst of over-admissions and zero blackout drops.
        assert limiter_report.values["blackout_drops"] == 0
        assert limiter_report.values["over_admissions"] > 0
        assert limiter_report.values["buckets_wiped"] > 0

    def test_heavy_hitter_redetected(self, limiter_report):
        assert (
            limiter_report.values["promotions_total"]
            >= limiter_report.values["promotions_before_reset"] + 1
        )

    def test_enforcement_back_to_steady_state(self, limiter_report):
        assert isinstance(limiter_report.values["time_to_steady_state_ms"], float)


class TestChaosDeterminism:
    def test_same_seed_same_snapshot(self):
        first = run_scenario("chaos", seed=21, quick=True)
        second = run_scenario("chaos", seed=21, quick=True)
        assert first.render() == second.render()
        assert first.metrics.snapshot() == second.metrics.snapshot()

    def test_chaos_injects_every_planned_fault(self):
        report = run_scenario("chaos", seed=21, quick=True)
        assert report.values["faults_injected"] == len(report.records)
        assert report.values["faults_injected"] >= 4


class TestRecoveryOrdering:
    """FPGA stall -> watchdog reset: per-flow order must survive recovery."""

    @pytest.fixture(scope="class")
    def stall_run(self):
        sim = Simulator()
        rngs = RngRegistry(seed=7)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(PodSpec(name="gw", data_cores=4))
        watchdog = FpgaWatchdog(sim, pod.nic)
        injector = FaultInjector(sim, FaultTargets(nic=pod.nic))
        injector.load(FaultPlan([Fault(FaultKind.FPGA_STALL, 50 * MS, 60 * MS)]))

        egress = []

        def capture(packet, where, outcome):
            if packet.drop_reason is None:
                egress.append((packet.flow, packet.uid, outcome))

        server.subscribers.append(capture)
        population = uniform_population(64, tenants=4)
        CbrSource(
            sim, rngs.stream("traffic"), pod.ingress, population, rate_pps=20_000
        )
        sim.run_until(250 * MS)
        return pod, watchdog, egress

    def test_watchdog_reset_fired(self, stall_run):
        pod, watchdog, _ = stall_run
        assert watchdog.resets >= 1
        assert pod.reorder_stats.resets == watchdog.resets
        assert pod.counters.get("fpga_stall_drops") > 0

    def test_no_out_of_per_flow_order_in_order_release(self, stall_run):
        # uid is globally monotonic in emission order, so within a flow
        # the IN_ORDER releases must carry strictly increasing uids --
        # across the stall, the reset and the recovery.
        _, _, egress = stall_run
        per_flow = {}
        for flow, uid, outcome in egress:
            if outcome is TxOutcome.IN_ORDER:
                per_flow.setdefault(flow, []).append(uid)
        assert per_flow  # traffic actually flowed in order
        for uids in per_flow.values():
            assert uids == sorted(uids)

    def test_traffic_resumes_after_reset(self, stall_run):
        pod, _, egress = stall_run
        # Packets transmitted after the stall window prove the pipeline
        # came back; stale-epoch writebacks never block the new window.
        last_uid_in_order = max(
            uid for _, uid, outcome in egress if outcome is TxOutcome.IN_ORDER
        )
        stats = pod.reorder_stats
        assert stats.reset_inflight_drops >= 0
        assert last_uid_in_order > 0
        assert pod.transmitted() > 0
