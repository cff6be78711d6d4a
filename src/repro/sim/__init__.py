"""Deterministic discrete-event simulation engine.

This package is the substrate every other subsystem runs on.  Time is an
integer number of nanoseconds so that event ordering is exact and runs are
reproducible bit-for-bit given the same seed.

Public API:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.engine.Event` -- a scheduled callback handle.
* :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded
  random streams.
* Time helpers: :data:`NS`, :data:`US`, :data:`MS`, :data:`SECOND`.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.units import MS, NS, SECOND, US

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "RngRegistry",
    "NS",
    "US",
    "MS",
    "SECOND",
]
