"""Typed fault descriptions and seed-reproducible fault plans.

A :class:`Fault` is one scheduled failure: what breaks (:class:`FaultKind`),
when (``at_ns``), for how long (``duration_ns``; 0 means instantaneous,
``None`` means until something else repairs it) and against which target
(an index or name interpreted per kind).  A :class:`FaultPlan` is an
ordered collection of faults; :meth:`FaultPlan.chaos` draws one at random
from a seeded stream, so two chaos runs with the same seed inject the
same faults at the same instants.
"""

import enum

from repro.sim.units import MS


class FaultKind(enum.Enum):
    """The failure modes the paper's platform must survive."""

    FPGA_STALL = "fpga_stall"      # pipeline freeze -> watchdog reset (§4.1)
    POD_CRASH = "pod_crash"        # container dies -> reschedule (~10 s, §7)
    CORE_STALL = "core_stall"      # data core offline -> PLB sprays around it
    LIMITER_SRAM = "limiter_sram"  # SRAM scrub resets token buckets (§4.3)
    LINK_FLAP = "link_flap"        # BFD down/up within 3 probe intervals


class Fault:
    """One scheduled failure.

    Attributes:
        kind: a :class:`FaultKind`.
        at_ns: injection time on the simulator clock.
        duration_ns: how long the failure condition holds.  ``0`` marks an
            instantaneous corruption (e.g. an SRAM scrub); ``None`` means
            the fault persists until an external actor repairs it (e.g. a
            pod crash awaiting reschedule).
        target: kind-specific selector -- a core index for CORE_STALL,
            otherwise usually ``None`` (the bound target in
            :class:`~repro.faults.injector.FaultTargets` is used).
        params: optional dict of extra knobs for the injector.
    """

    __slots__ = ("kind", "at_ns", "duration_ns", "target", "params", "record")

    def __init__(self, kind, at_ns, duration_ns=0, target=None, params=None):
        if at_ns < 0:
            raise ValueError(f"fault time must be non-negative: {at_ns}")
        if duration_ns is not None and duration_ns < 0:
            raise ValueError(f"fault duration must be non-negative: {duration_ns}")
        self.kind = kind
        self.at_ns = int(at_ns)
        self.duration_ns = None if duration_ns is None else int(duration_ns)
        self.target = target
        self.params = dict(params) if params else {}
        self.record = None  # set by the injector

    def __repr__(self):
        span = "∞" if self.duration_ns is None else f"{self.duration_ns}ns"
        return f"<Fault {self.kind.value} @{self.at_ns}ns for {span}>"


class FaultPlan:
    """An ordered, reproducible schedule of faults."""

    def __init__(self, faults=()):
        self.faults = sorted(faults, key=lambda fault: fault.at_ns)

    def __iter__(self):
        return iter(self.faults)

    @classmethod
    def chaos(
        cls,
        rng,
        duration_ns,
        kinds=None,
        count=4,
        min_gap_ns=50 * MS,
        max_fault_ns=100 * MS,
        core_count=1,
    ):
        """Draw a random plan from a seeded stream (deterministic chaos).

        ``count`` faults are spread over ``[min_gap_ns, duration_ns)``
        with at least ``min_gap_ns`` between injections; each fault's
        duration is uniform in ``[10 ms, max_fault_ns]``.  CORE_STALL
        faults pick a core index below ``core_count``.  Identical
        ``rng`` seeds yield identical plans.
        """
        kinds = list(kinds) if kinds is not None else list(FaultKind)
        if not kinds:
            raise ValueError("chaos needs at least one fault kind")
        window = duration_ns - min_gap_ns * (count + 1)
        if window < 0:
            raise ValueError("duration too short for the requested fault count")
        offsets = sorted(rng.randrange(max(1, window)) for _ in range(count))
        faults = []
        for index, offset in enumerate(offsets):
            kind = rng.choice(kinds)
            at_ns = min_gap_ns * (index + 1) + offset
            duration_ns = rng.randrange(10 * MS, max(10 * MS + 1, max_fault_ns))
            target = None
            if kind is FaultKind.CORE_STALL:
                target = rng.randrange(core_count)
            if kind is FaultKind.LIMITER_SRAM:
                duration_ns = 0  # instantaneous corruption
            faults.append(Fault(kind, at_ns, duration_ns, target=target))
        return cls(faults)
