"""Periodic utilization sampling and small statistics helpers.

Fig. 10 plots the standard deviation of per-core utilization over a week
of production -- micro-bursts spike one core by ~50% under RSS but are
imperceptible when PLB spreads them over tens of cores.  The sampler
reproduces that measurement: it wakes periodically, reads each core's
busy-time delta, and records the across-core standard deviation.
"""

import math

from repro.controlplane.snapshot import Stateful


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def stddev(values):
    """Population standard deviation."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(sum((value - center) ** 2 for value in values) / len(values))


class UtilizationSampler(Stateful):
    """Samples per-core utilization at a fixed period.

    After ``run``, ``stddev_series`` holds the across-core standard
    deviation of each period's per-core utilizations.
    """

    STATE = ("stddev_series", ("previous_busy", "_previous_busy"), ("task", "_task"))

    def __init__(self, sim, cores, period_ns):
        self.sim = sim
        self.cores = list(cores)
        self.period_ns = period_ns
        self.stddev_series = []
        self._previous_busy = [0] * len(self.cores)
        self._task = sim.every(period_ns, self._sample)

    def _sample(self):
        utilizations = []
        for index, core in enumerate(self.cores):
            busy = core.stats.busy_ns
            delta = busy - self._previous_busy[index]
            self._previous_busy[index] = busy
            utilizations.append(min(1.0, delta / self.period_ns))
        self.stddev_series.append(stddev(utilizations))
