"""Runtime simulation sanitizer: cheap, toggleable invariant checks.

Enabled by ``REPRO_SANITIZE=1`` in the environment (read once, at import)
or programmatically via :func:`install`.  Components cache
:func:`get_sanitizer` **at construction**, so install the sanitizer before
building the :class:`~repro.sim.engine.Simulator` and everything on top of
it; when disabled every hook collapses to one ``is not None`` test.

Checks wired into the platform:

* ``sim.engine``    -- simtime monotonicity; event causality (no
  scheduling in the past); every executed event is recorded into the
  trace ring buffer.
* ``core.nic``      -- packet conservation at every settle point (drop,
  priority hand-off, transmit): the pipeline's own ``in_flight()`` counter
  arithmetic never goes negative, no double transmission, no
  dropped-packet leak to the wire.
* ``core.plb.reorder`` -- an in-order release carries exactly its order
  queue's FIFO head pointer, hence strictly increasing PSNs per queue
  (per-flow ordering); FIFO occupancy respects the configured depth.
* ``core.ratelimit`` -- lazily materialized token buckets never exceed
  the provisioned SRAM table sizes.
* ``cpu.core``      -- RX queue occupancy respects the descriptor ring
  bound; service times are never negative.

A failed check raises :class:`SanitizerViolation` carrying the offending
event trace (the most recent engine events, oldest first), so the report
shows *how the simulation got there*, not just the broken assertion.

Apart from the event trace the sanitizer keeps no state: each check reads
the counters and pointers the model already maintains, and it never
mutates them, so a sanitized run renders byte-identical reports -- pod
snapshot bytes included -- to an unsanitized one (tier-1 compares both).
"""

import os
from collections import deque


class SanitizerViolation(Exception):
    """An invariant check failed.

    Attributes:
        check: the invariant's name (e.g. ``"packet-conservation"``).
        detail: structured key/value context for the failure.
        trace: recent ``(time_ns, label)`` engine events, oldest first.
    """

    def __init__(self, check, message, detail=None, trace=None):
        self.check = check
        self.detail = dict(detail or {})
        self.trace = list(trace or [])
        lines = [f"[{check}] {message}"]
        if self.detail:
            lines.append(
                "  detail: "
                + ", ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
            )
        if self.trace:
            lines.append("  recent events (oldest first):")
            lines.extend(f"    t={time_ns} {label}" for time_ns, label in self.trace)
        super().__init__("\n".join(lines))


class Sanitizer:
    """Invariant-check hub shared by every instrumented component.

    Parameters:
        trace_depth: how many executed events the trace ring retains.
    """

    def __init__(self, trace_depth=64):
        self.trace = deque(maxlen=trace_depth)
        self.checks = 0
        self.violations = 0
        self.events_traced = 0

    def record_event(self, time_ns, label):
        """Ring-buffer one executed engine event for violation reports."""
        self.events_traced += 1
        self.trace.append((time_ns, label))

    def violation(self, check, message, **detail):
        """Unconditionally raise a :class:`SanitizerViolation`."""
        self.violations += 1
        raise SanitizerViolation(check, message, detail=detail, trace=self.trace)

    def ensure(self, condition, check, message, **detail):
        """Count one check; raise with the event trace if it fails."""
        self.checks += 1
        if not condition:
            self.violation(check, message, **detail)

    def summary(self):
        return (
            f"sanitizer: {self.checks} checks, {self.violations} violations, "
            f"{self.events_traced} events traced"
        )


_active = None


def install(sanitizer=None):
    """Activate a sanitizer; components built afterwards pick it up."""
    global _active
    _active = sanitizer if sanitizer is not None else Sanitizer()
    return _active


def uninstall():
    """Deactivate the sanitizer (components keep their cached reference)."""
    global _active
    _active = None


def get_sanitizer():
    """The active :class:`Sanitizer`, or None when checks are off."""
    return _active


if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
    install()
