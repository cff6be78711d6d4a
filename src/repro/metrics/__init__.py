"""Measurement utilities: histograms, counters, utilization sampling.

The package loads what every pod records (:mod:`.counters`,
:mod:`.histogram`); the observers a caller attaches (:mod:`.summary`'s
``UtilizationSampler``, :mod:`.trace`'s ``PacketTracer``) are imported
from their modules.
"""

from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram

__all__ = [
    "CounterSet",
    "LatencyHistogram",
]
