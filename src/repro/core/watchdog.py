"""PLB health watchdog: automatic fallback to RSS (§4.1, remediation 5).

"If the previous methods do not work and we are unable to pinpoint the
root cause, the GW pod can dynamically switch from PLB mode to RSS mode
to attempt remediation."  In production this is an operator action; the
watchdog automates the trigger: it samples the reorder engine's HOL and
disorder counters every period and falls back when they stay above
threshold for ``strikes`` consecutive periods (a single noisy period is
tolerated -- minor HOL is normal and handled by the timeout).

The watchdog can also restore PLB after a configurable quiet interval,
for operators who want auto-recovery rather than a sticky fallback.

:class:`FpgaWatchdog` models the other watchdog the paper relies on in
production: a liveness monitor that polls the FPGA pipeline's heartbeat
and, after ``strikes`` missed beats, resets the pipeline (dropping all
in-flight reorder state) to bring the NIC back.
"""

from repro.controlplane.snapshot import Stateful
from repro.sim.units import MS, SECOND


class PlbWatchdog(Stateful):
    """Monitors one pod's reorder health and drives mode fallback.

    Parameters:
        sim: the simulator.
        nic: the pod's :class:`~repro.core.nic.NicPipeline`.
        hol_events_per_s_threshold: sustained HOL rate that trips a strike.
        disorder_rate_threshold: sustained disorder fraction that trips.
        strikes: consecutive bad periods before falling back.
        period_ns: sampling period.
        auto_restore_after_ns: restore PLB after this long in RSS
            (None = stay in RSS until told otherwise).
    """

    STATE = ("fallbacks", "restores", ("strike_count", "_strike_count"),
             ("last_hol", "_last_hol"), ("last_best_effort", "_last_best_effort"),
             ("last_transmitted", "_last_transmitted"), ("fell_back_at", "_fell_back_at"),
             ("task", "_task"))

    def __init__(
        self,
        sim,
        nic,
        hol_events_per_s_threshold=1000.0,
        disorder_rate_threshold=1e-3,
        strikes=3,
        period_ns=SECOND // 10,
        auto_restore_after_ns=None,
    ):
        self.sim = sim
        self.nic = nic
        self.hol_events_per_s_threshold = hol_events_per_s_threshold
        self.disorder_rate_threshold = disorder_rate_threshold
        self.strikes = strikes
        self.period_ns = period_ns
        self.auto_restore_after_ns = auto_restore_after_ns
        self.fallbacks = 0
        self.restores = 0
        self._strike_count = 0
        self._last_hol = 0
        self._last_best_effort = 0
        self._last_transmitted = 0
        self._fell_back_at = None
        self._task = sim.every(period_ns, self._check)

    @property
    def in_fallback(self):
        return self.nic.mode == "rss" and self._fell_back_at is not None

    def _check(self):
        stats = self.nic.reorder.stats
        hol_delta = stats.hol_events - self._last_hol
        best_effort_delta = stats.best_effort - self._last_best_effort
        transmitted_delta = stats.transmitted - self._last_transmitted
        self._last_hol = stats.hol_events
        self._last_best_effort = stats.best_effort
        self._last_transmitted = stats.transmitted

        if self.in_fallback:
            if (
                self.auto_restore_after_ns is not None
                and self.sim.now - self._fell_back_at >= self.auto_restore_after_ns
            ):
                self.nic.restore_plb()
                self._fell_back_at = None
                self._strike_count = 0
                self.restores += 1
            return

        hol_rate = hol_delta * SECOND / self.period_ns
        disorder = (
            best_effort_delta / transmitted_delta if transmitted_delta else 0.0
        )
        unhealthy = (
            hol_rate > self.hol_events_per_s_threshold
            or disorder > self.disorder_rate_threshold
        )
        if unhealthy:
            self._strike_count += 1
            if self._strike_count >= self.strikes:
                self.nic.fallback_to_rss()
                self._fell_back_at = self.sim.now
                self.fallbacks += 1
        else:
            self._strike_count = 0


class FpgaWatchdog(Stateful):
    """Detects a stalled FPGA pipeline and resets it (§4.1 remediation).

    Polls ``nic.heartbeat()`` every ``period_ns``; a poll where the beat
    did not advance counts as a strike, and ``strikes`` consecutive
    strikes trigger ``nic.recover_fpga()`` (pipeline reload: the in-flight
    reorder state is dropped and traffic resumes).  Worst-case detection
    latency is therefore ``(strikes + 1) * period_ns``.

    Parameters:
        sim: the simulator.
        nic: the pod's :class:`~repro.core.nic.NicPipeline`.
        period_ns: heartbeat polling period.
        strikes: consecutive missed beats before resetting.
        on_reset: optional callback ``on_reset(watchdog)`` fired after
            each reset (fault injectors hook detection metrics here).
    """

    STATE = ("resets", "inflight_dropped", ("strike_count", "_strike_count"),
             ("last_beat", "_last_beat"), ("task", "_task"))

    def __init__(self, sim, nic, period_ns=10 * MS, strikes=2, on_reset=None):
        self.sim = sim
        self.nic = nic
        self.period_ns = period_ns
        self.strikes = strikes
        self.on_reset = on_reset
        self.resets = 0
        self.inflight_dropped = 0
        self._strike_count = 0
        self._last_beat = nic.heartbeat()
        self._task = sim.every(period_ns, self._check)

    def _check(self):
        beat = self.nic.heartbeat()
        if beat == self._last_beat:
            self._strike_count += 1
            if self._strike_count >= self.strikes:
                self.inflight_dropped += self.nic.recover_fpga()
                self.resets += 1
                self._strike_count = 0
                self._last_beat = self.nic.heartbeat()
                if self.on_reset is not None:
                    self.on_reset(self)
        else:
            self._strike_count = 0
            self._last_beat = beat
