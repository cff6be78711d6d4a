"""Every owner of a periodic timer restores it into its ``(time, seq)`` slot.

Each world drives one owner from collaborators whose inputs are a function
of the clock (or are restored with it), so a fresh world restored mid-run
sees what the straight run saw: every later firing, and every effect the
owner has on its collaborators, must land where the straight run has it.
A timer that can be off is a handle its owner holds for life, so a
snapshot taken while it is off, or restored into an owner whose timer is
off, needs no special case.
"""

import pytest

from repro.bgp.bfd import bfd_pair
from repro.bgp.fsm import BgpState, establish_pair
from repro.bgp.speaker import BgpSpeaker
from repro.controlplane.snapshot import Stateful
from repro.core.hitters import HotFlowPromoter
from repro.core.ratelimit import TwoStageRateLimiter
from repro.core.watchdog import FpgaWatchdog, PlbWatchdog
from repro.cpu.numa import NumaBalancer
from repro.metrics.summary import UtilizationSampler
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec
from repro.sim import MS, SECOND, US, RngRegistry, Simulator
from tests.timer_restore import (
    assert_restored_run_matches,
    deployment,
    fired,
    live_events,
    until_quiescent,
)


class _ScriptedNic(Stateful):
    """The NIC surface both watchdogs read.  Its reorder counters climb
    fast in [200, 600) ms (an HOL storm); its heartbeat freezes in
    [300, 450) ms (a stalled pipeline).  The mode is its one state."""

    STATE = ("mode",)

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log
        self.mode = "plb"
        self.reorder = self
        self.stats = self

    @property
    def hol_events(self):
        return max(0, min(self.sim.now, 600 * MS) - 200 * MS) // US

    best_effort = 0

    @property
    def transmitted(self):
        return self.sim.now // US

    def heartbeat(self):
        now = self.sim.now
        return 300 if 300 * MS <= now < 450 * MS else now // MS

    def _effect(self, name):
        self.log.append((self.sim.now, None, name))

    def fallback_to_rss(self):
        self.mode = "rss"
        self._effect("fallback_to_rss")

    def restore_plb(self):
        self.mode = "plb"
        self._effect("restore_plb")

    def recover_fpga(self):
        self._effect("recover_fpga")
        return 5


class _Core:
    """A core whose busy time is a function of the clock; stalls are logged."""

    def __init__(self, sim, index, log):
        self.sim = sim
        self.index = index
        self.log = log
        self.stats = self

    @property
    def busy_ns(self):
        now = self.sim.now
        return now * (self.index + 1) // 4 + (now // MS) % (self.index + 3) * 100 * US

    def inject_stall(self, ns):
        self.log.append((self.sim.now, None, f"stall core {self.index} {ns}"))


def _plb_watchdog_world():
    sim = Simulator()
    log = fired(sim)
    nic = _ScriptedNic(sim, log)
    watchdog = PlbWatchdog(sim, nic, hol_events_per_s_threshold=100.0, strikes=3,
                           period_ns=20 * MS, auto_restore_after_ns=100 * MS)
    return sim, [nic, watchdog], log


def _fpga_watchdog_world():
    sim = Simulator()
    log = fired(sim)
    return sim, [FpgaWatchdog(sim, _ScriptedNic(sim, log), period_ns=10 * MS)], log


def _hitter_world():
    # Tenant 7 offers 10 kpps until 400 ms, over a 5 kpps threshold: it is
    # promoted in the first epoch and demoted three quiet epochs after.
    sim = Simulator()
    log = fired(sim)
    rngs = RngRegistry(1)
    limiter = TwoStageRateLimiter(rngs.stream("limiter"), stage1_rate_pps=1000,
                                  stage2_rate_pps=200, auto_promote=False)
    promoter = HotFlowPromoter(sim, limiter, threshold_pps=5_000, epoch_ns=50 * MS,
                               demote_after_epochs=3)

    def offer():
        if sim.now < 400 * MS:
            promoter.sketch.observe(7)

    return sim, [rngs, limiter, promoter, sim.every(100 * US, offer)], log


def _numa_world(enabled=True):
    # Sampled as well, so a run with the balancer off still takes sequence
    # numbers (a restore never moves the counter backwards).
    sim = Simulator()
    log = fired(sim)
    rngs = RngRegistry(3)
    cores = [_Core(sim, index, log) for index in range(8)]
    balancer = NumaBalancer(sim, cores, enabled=enabled, scan_period_ns=10 * MS,
                            stall_ns=20 * US, rng=rngs.stream("balancer"))
    return sim, [rngs, balancer, UtilizationSampler(sim, cores, 15 * MS)], log


def _sampler_world():
    sim = Simulator()
    log = fired(sim)
    cores = [_Core(sim, index, log) for index in range(3)]
    return sim, [UtilizationSampler(sim, cores, 10 * MS)], log


def _bgp_world():
    # Established within a few ms, keepalives every 3 s; the link loses
    # everything from 10 s, so both hold timers expire 9 s after the last
    # keepalive heard.  Nothing is on the wire at 4.5 s or at 30 s.
    sim = Simulator()
    log = fired(sim)
    speakers = [BgpSpeaker(sim, name, 65001 + i, 0x0A000001 + i) for i, name in enumerate("ab")]
    sessions = establish_pair(sim, *speakers, hold_time_s=9,
                              loss_fn=lambda: sim.now >= 10 * SECOND)[:2]
    return sim, list(sessions), log


def _until(end):
    return lambda sim, parts: sim.run_until(end)


class TestOwnersRestoreIntoTheirSlots:
    """Restored mid-run into a fresh world, each owner's later firings and
    effects match the straight run's, and its counters end equal."""

    @pytest.mark.parametrize("world, restore_at, end, effect", [
        # Two strikes into the storm; three fallbacks and restores follow.
        (_plb_watchdog_world, 250 * MS, SECOND, "fallback_to_rss"),
        # One strike into the stall; a reset every second poll follows.
        (_fpga_watchdog_world, 315 * MS, SECOND, "recover_fpga"),
        # Mid-epoch, the sketch half full; the demotion follows.
        (_hitter_world, 25_050 * US, SECOND, "HotFlowPromoter._epoch"),
        (_numa_world, 35 * MS, 200 * MS, "stall core"),
        (_sampler_world, 45 * MS, 200 * MS, "UtilizationSampler._sample"),
        # ESTABLISHED between keepalives; both hold timers expire after.
        (_bgp_world, 4_500 * MS, 30 * SECOND, "BgpSession._hold_expired"),
    ], ids=["plb-watchdog", "fpga-watchdog", "cpu-hitter-detector", "numa-balancer",
            "utilization-sampler", "bgp-session"])
    def test_fires_where_the_straight_run_does(self, world, restore_at, end, effect):
        after = assert_restored_run_matches(world, _until(restore_at), [(end, None)])
        assert any(entry[2].startswith(effect) for entry in after)

    def test_each_owner_did_its_work_after_the_restore(self):
        # The worlds above are not idle past their restore instants.
        sim, (nic, watchdog), _ = _plb_watchdog_world()
        sim.run_until(SECOND)
        assert (watchdog.fallbacks, watchdog.restores, nic.mode) == (3, 3, "plb")
        sim, (fpga,), _ = _fpga_watchdog_world()
        sim.run_until(SECOND)
        assert fpga.resets == 7
        sim, (_, limiter, _, _), _ = _hitter_world()
        sim.run_until(450 * MS)
        assert limiter.installed(7)
        sim.run_until(SECOND)
        assert limiter.promotions == 1      # promoted once, then demoted
        assert not limiter.installed(7)
        sim, sessions, _ = _bgp_world()
        sim.run_until(30 * SECOND)
        assert [session.state for session in sessions] == [BgpState.IDLE] * 2


class TestIdleTimers:
    """The three timers that can be off: a restore moves each between off
    and pending through the same slot rule."""

    def test_an_enabled_balancer_restored_into_a_disabled_one_scans(self):
        after = assert_restored_run_matches(
            _numa_world, _until(35 * MS), [(200 * MS, None)],
            fresh=lambda: _numa_world(enabled=False))
        assert sum(entry[2] == "NumaBalancer._scan" for entry in after) == 17

    def test_a_disabled_balancer_restored_into_an_enabled_one_never_scans(self):
        after = assert_restored_run_matches(
            lambda: _numa_world(enabled=False), _until(35 * MS), [(SECOND, None)],
            fresh=_numa_world)
        assert {entry[2] for entry in after} == {"UtilizationSampler._sample"}

    def test_an_idle_bgp_session_restores_with_no_timer_armed(self):
        # Both ends IDLE after their hold timers expired: connect, hold and
        # keepalive are all off, so the fresh pair's connect is dropped.
        sim, sessions, _ = _bgp_world()
        sim.run_until(30 * SECOND)
        states = [session.checkpoint() for session in sessions]
        assert all(state[timer] is None for state in states
                   for timer in ("connect_timer", "hold_timer", "keepalive_timer"))
        other_sim, others, other_log = _bgp_world()
        assert live_events(other_sim) == 1       # a's connect
        other_sim.restore(sim.checkpoint())
        for other, state in zip(others, states):
            other.restore(state)
        assert live_events(other_sim) == 0
        other_sim.run_until(60 * SECOND)
        assert other_log == []
        assert [other.checkpoint() for other in others] == states

    def test_a_bfd_detect_timer_before_the_first_probe_stays_off(self):
        # b never hears a, so b's detect timer is never armed; a's is.
        def world():
            sim = Simulator()
            log = fired(sim)
            return sim, list(bfd_pair(sim, loss_fn_ab=lambda: True)), log

        sim, (a, b), _ = world()
        sim.run_until(1_010 * MS)
        assert b.checkpoint()["detect"] is None and a.checkpoint()["detect"] is not None
        after = assert_restored_run_matches(world, _until(1_010 * MS), [(2 * SECOND, None)])
        assert "BfdSession._detect_expired" not in {entry[2] for entry in after}


class TestScheduledDeployment:
    """A deployment of several declared workloads, two on rate schedules,
    restored part way through both schedules: every later tick and rate
    change lands where the straight run has it."""

    SPEC = ScenarioSpec(
        name="scheduled",
        pods=(PodSpec(name="gw", data_cores=2, per_core_pps=200_000),),
        workload=(
            WorkloadSpec(flows=32, tenants=4, rate_pps=20_000, stream="base",
                         schedule=((2 * MS, 40_000), (5 * MS, 10_000), (8 * MS, 30_000))),
            WorkloadSpec(kind="poisson", flows=8, tenants=2, rate_pps=10_000,
                         stream="poisson", first_tenant=100),
            WorkloadSpec(flows=1, tenants=1, rate_pps=0, stream="burst", first_tenant=7000,
                         first_flow=3, schedule=((3 * MS, 30_000), (7 * MS, 0))),
        ),
        seed=5,
    )

    @pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "sanitized"])
    def test_fires_where_the_straight_run_does(self, sanitized):
        def stop_sources(parts):
            for source in parts[2:]:
                source.stop()

        # Stopped at 12 ms, so the pod is drained when the snapshots meet.
        after = assert_restored_run_matches(
            lambda: deployment(self.SPEC, sanitized), until_quiescent(4 * MS),
            [(12 * MS, stop_sources), (13 * MS, None)])
        names = [entry[2] for entry in after]
        assert names.count("ScheduledSource._next_rate") == 3
        assert {"CbrSource._tick", "PoissonSource._tick"} <= set(names)
