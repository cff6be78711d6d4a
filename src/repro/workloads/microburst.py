"""Microburst traffic (§6, Fig. 9/10).

Cloud gateways see constant micro-bursts: sub-second surges that can push
a single RSS-pinned core up ~50% while barely moving a PLB-sprayed pod.
:class:`MicroburstSource` layers random bursts on top of a base rate.
"""

from repro.workloads.generators import CbrSource
from repro.sim.units import MS


class MicroburstSource(CbrSource):
    """CBR base traffic plus exponentially-spaced microbursts.

    During a burst the rate multiplies by ``burst_factor``; bursts last
    ``burst_duration_ns`` and start on average every ``burst_period_ns``.
    """

    SNAPSHOT_KIND = "microburst"

    STATE = CbrSource.STATE + (
        "bursts_started", ("in_burst", "_in_burst"), ("burst_event", "_burst_event"),
    )

    def __init__(
        self,
        sim,
        rng,
        sink,
        population,
        base_rate_pps,
        burst_factor=4.0,
        burst_duration_ns=20 * MS,
        burst_period_ns=200 * MS,
        **kwargs,
    ):
        super().__init__(sim, rng, sink, population, base_rate_pps, **kwargs)
        self.base_rate_pps = base_rate_pps
        self.burst_factor = burst_factor
        self.burst_duration_ns = burst_duration_ns
        self.burst_period_ns = burst_period_ns
        self.bursts_started = 0
        self._in_burst = False
        # The one pending burst edge: a burst's start, or (in a burst)
        # its end.
        self._schedule_burst()

    def _schedule_burst(self):
        gap = self.rng.expovariate(1.0 / self.burst_period_ns)
        self._burst_event = self.sim.schedule(max(1, int(gap)), self._burst_edge)

    def _burst_edge(self):
        if self._in_burst:
            self._in_burst = False
            if self._running:
                self.set_rate(self.base_rate_pps)
            self._schedule_burst()
        else:
            self._in_burst = True
            self.bursts_started += 1
            if self._running:
                self.set_rate(int(self.base_rate_pps * self.burst_factor))
            self._burst_event = self.sim.schedule(self.burst_duration_ns, self._burst_edge)

    def stop(self):
        """Stop emission *and* the burst cycle (a ``set_rate(0)`` pause keeps it)."""
        super().stop()
        self._burst_event.cancel()
