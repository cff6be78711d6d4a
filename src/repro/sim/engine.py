"""Event loop for the discrete-event simulator.

The design is intentionally small: a binary heap of ``(time, seq, fn, args,
event_or_None)`` entries and a handful of run/stop primitives.  Components
interact by scheduling callbacks; there is no process/coroutine machinery to
keep the hot path cheap (the reorder and dispatch models schedule millions of
events per simulated second).

Three ways to queue a callback, one heap entry each:

* ``schedule(delay, fn, *args)`` returns a cancellable :class:`Event` whose
  ``(time, seq)`` a checkpoint may record;
* ``post(delay, fn, *args)`` is the same push with no ``Event`` allocated,
  for callers that keep no handle.  Anything that is ever cancelled, or
  checkpointed by ``(time, seq)``, needs ``schedule``;
* ``rearm(event, delay)`` moves a *pending* event to a later-or-equal
  instant in place: it takes the next sequence number exactly as
  ``cancel()`` + ``schedule()`` would and leaves the heap entry where it
  is.  When that stale entry surfaces (``entry seq != event.seq``) the run
  loop re-pushes it, uncounted, at ``(event.time, event.seq)``.  The old
  slot sorts first, so the event still fires at the ``(time, seq)`` the
  cancel-and-reschedule spelling gives it: every tie-break is unchanged.

Determinism guarantees:

* time is integer nanoseconds, so there are no float-comparison surprises;
* ties are broken by a monotonically increasing sequence number, so two
  events scheduled for the same instant always fire in scheduling order.

Hot-path notes (see DESIGN.md "Performance"):

* the sanitizer is resolved **once, at construction**: a plain run binds a
  no-check ``step`` implementation and the inlined run loop, so it pays
  zero per-event sanitizer branches;
* ``run`` and ``run_until`` share one loop (``_drive``; ``run`` is
  ``run_until`` an end time that never arrives).  Its plain branch binds
  the heap and ``heapq`` primitives to locals and pops directly instead of
  delegating to ``step`` per event; a sanitized (or ``max_events``-counted)
  run calls ``step`` per event, so checked execution is one function,
  ``_step_checked``, whichever entry point drives it;
* same-timestamp batches write ``_now`` once per distinct timestamp.

``pending`` is derived (heap entries minus cancelled ones still queued), so
no per-event counter is kept.  None of this changes observable behaviour:
event order, ``now``, ``events_processed`` and ``pending`` are identical on
the fast and checked paths (asserted by the engine test suite).
"""

import heapq

from repro.analysis.sanitizer import get_sanitizer

_heappush = heapq.heappush
_heappop = heapq.heappop

# ``run()`` is ``run_until`` an end time that never arrives.
_NEVER = float("inf")


def _event_label(fn):
    return getattr(fn, "__qualname__", repr(fn))


class SimulationError(Exception):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`; it can be cancelled
    (:meth:`cancel`) or moved later (:meth:`Simulator.rearm`).  Cancelled
    events stay in the heap but are skipped when popped (lazy deletion),
    which is O(1) instead of O(n).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "seq")

    def __init__(self, time, fn, args, seq=0):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        # The heap tie-break, exposed so checkpoints can record the
        # relative order of same-timestamp pending events (restore
        # re-creates them sorted by (time, seq)).
        self.seq = seq

    def cancel(self):
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "fired" if self.fired else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} fn={name} {state}>"


class Simulator:
    """Discrete-event loop with an integer-nanosecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(10 * US, my_handler, arg1, arg2)
        sim.run_until(1 * SECOND)

    Handlers receive their ``args`` but not the simulator; components keep a
    reference to the simulator they were constructed with.

    ``step`` is bound per instance at construction: the sanitized variant
    when a sanitizer is installed, the unchecked variant otherwise.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_sequence",
        "_events_processed",
        "_running",
        "_stopped",
        "_sanitizer",
        "step",
    )

    def __init__(self):
        self._now = 0
        self._heap = []
        # The heap and its bookkeeping are deliberately outside the
        # snapshot (see checkpoint()): pending events hold closures, and
        # every owner re-creates its own events on restore, sorted by
        # their checkpointed (time, seq) so fresh sequence numbers
        # preserve the original firing order.
        self._sequence = 0  # lint: disable=SNAP001(tie-break counter; restore re-arms events in checkpointed time-seq order, so fresh numbers preserve firing order)
        self._events_processed = 0
        self._running = False
        self._stopped = False  # lint: disable=SNAP001(run-loop transient; checkpoints are only taken between runs)
        self._sanitizer = get_sanitizer()
        # Resolved once: plain runs never test the sanitizer per event.
        self.step = self._step_checked if self._sanitizer is not None else self._step_fast

    @property
    def now(self):
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self):
        """Total callbacks executed since construction."""
        return self._events_processed

    @property
    def pending(self):
        """Number of not-yet-cancelled events still queued.

        A heap scan (every event has exactly one entry, rearmed or not):
        nothing on a hot path reads it, so no live-event counter is kept.
        """
        heap = self._heap
        return len(heap) - sum(
            1 for entry in heap if entry[4] is not None and entry[4].cancelled
        )

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now.

        Returns an :class:`Event` that can be cancelled.  ``delay`` must be a
        non-negative integer; a zero delay runs after the current handler
        completes but at the same timestamp.
        """
        if delay < 0:
            self._reject_past(delay, fn)
        time = self._now + int(delay)
        seq = self._sequence
        event = Event(time, fn, args, seq)  # lint: disable=SNAP003(heap entries hold closures and are never serialized; owners re-arm their pending events on restore)
        _heappush(self._heap, (time, seq, fn, args, event))
        self._sequence = seq + 1
        return event

    def post(self, delay, fn, *args):
        """:meth:`schedule` without a handle: same ordering and negative-delay
        rejection, no :class:`Event` allocated, nothing to cancel."""
        if delay < 0:
            self._reject_past(delay, fn)
        seq = self._sequence
        _heappush(self._heap, (self._now + int(delay), seq, fn, args, None))
        self._sequence = seq + 1

    def rearm(self, event, delay):
        """Move a pending ``event`` to ``delay`` ns from now, in place.

        ``event.cancel()`` + ``schedule(delay, ...)`` without the second
        heap entry and :class:`Event`.  The new instant must not precede
        the current one: the entry is re-pushed when its old slot surfaces.
        """
        time = self._now + int(delay)
        if event.cancelled or event.fired or time < event.time:
            raise SimulationError(
                f"cannot rearm {event!r} to t={time}: not pending, or earlier"
            )
        event.time = time
        event.seq = self._sequence
        self._sequence += 1

    def _reject_past(self, delay, fn):
        if self._sanitizer is not None:
            self._sanitizer.violation(
                "event-causality",
                f"cannot schedule in the past (delay={delay})",
                delay_ns=delay, now_ns=self._now, callback=_event_label(fn),
            )
        raise SimulationError(f"cannot schedule in the past (delay={delay})")

    def schedule_at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at an absolute timestamp."""
        if time < self._now:
            if self._sanitizer is not None:
                self._sanitizer.violation(
                    "event-causality",
                    f"cannot schedule at t={time} before now={self._now}",
                    time_ns=time, now_ns=self._now, callback=_event_label(fn),
                )
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        return self.schedule(time - self._now, fn, *args)

    def stop(self):
        """Stop the run loop after the current handler returns."""
        self._stopped = True

    def _pop_due(self, end_time):
        """Pop the next entry that fires by ``end_time`` (None: there is
        none), dropping cancelled entries and re-pushing stale (rearmed) ones."""
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            if entry[0] > end_time:
                _heappush(heap, entry)
                break
            event = entry[4]
            if event is not None:
                if event.cancelled:
                    continue
                if event.seq != entry[1]:
                    _heappush(heap, (event.time, event.seq, entry[2], entry[3], event))
                    continue
                event.fired = True
            return entry
        return None

    def _step_fast(self, end_time=_NEVER):
        """Execute the next pending event.  Returns False if none remain
        (or, for the run loop, none is due by ``end_time``)."""
        entry = self._pop_due(end_time)
        if entry is None:
            return False
        self._now = entry[0]
        self._events_processed += 1
        entry[2](*entry[3])
        return True

    def _step_checked(self, end_time=_NEVER):
        """`step` with sanitizer invariant checks and event tracing."""
        entry = self._pop_due(end_time)
        if entry is None:
            return False
        time, _, fn, args, _ = entry
        self._sanitizer.ensure(
            time >= self._now, "simtime-monotonicity",
            f"event at t={time} popped behind now={self._now}",
            time_ns=time, now_ns=self._now, callback=_event_label(fn),
        )
        self._sanitizer.record_event(time, _event_label(fn))
        self._now = time
        self._events_processed += 1
        fn(*args)
        return True

    def run(self, max_events=None):
        """Run until the event heap drains (or ``max_events`` is hit)."""
        self._drive(_NEVER, max_events)

    def run_until(self, end_time):
        """Run events with timestamp <= ``end_time``, then set now to it.

        Events scheduled beyond ``end_time`` remain queued; a later
        ``run_until`` continues from where this one left off.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) is before now={self._now}"
            )
        self._drive(end_time, None)
        if not self._stopped:
            self._now = max(self._now, end_time)

    def _drive(self, end_time, max_events):
        """The run loop behind :meth:`run` and :meth:`run_until`."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            if self._sanitizer is not None or max_events is not None:
                # Checked or counted: one ``step`` per event.
                step = self.step
                count = 0
                while (not self._stopped and (max_events is None or count < max_events)
                       and step(end_time)):
                    count += 1
            else:
                # Fast path: pop first and push the single boundary-crossing
                # entry back, instead of peeking the heap root every event.
                heap = self._heap
                pop = _heappop
                now = self._now
                while heap and not self._stopped:
                    entry = pop(heap)
                    time, seq, fn, args, event = entry
                    if time > end_time:
                        _heappush(heap, entry)
                        break
                    if event is not None:
                        if event.cancelled:
                            continue
                        if event.seq != seq:
                            # Rearmed: its current slot is later-or-equal.
                            _heappush(heap, (event.time, event.seq, fn, args, event))
                            continue
                        event.fired = True
                    if time != now:
                        self._now = now = time
                    self._events_processed += 1
                    fn(*args)
        finally:
            self._running = False

    def checkpoint(self):
        """Clock state as plain data (see ``controlplane/snapshot.py``).

        Only the clock and the processed-event count are captured -- the
        heap itself holds closures and is deliberately *not* serialized.
        Checkpoints are taken at quiescent instants where every pending
        event belongs to a component that knows how to re-create it from
        its own ``checkpoint()`` (sources reschedule their next tick, the
        checkpointer its next fire); see ``SimCheckpointer``.
        """
        return {"now": self._now, "events_processed": self._events_processed}

    def restore_clock(self, snapshot):
        """Jump the clock forward to a checkpoint's instant.

        Must be called between runs (never from inside a handler) and
        can only move time forward: stale events scheduled before the
        restored instant (e.g. a freshly built source's first tick) must
        be cancelled by their owners' ``restore()`` before they fire.
        """
        if self._running:
            raise SimulationError("cannot restore the clock mid-run")
        now = int(snapshot["now"])
        if now < self._now:
            raise SimulationError(
                f"cannot restore clock backwards to t={now} (now={self._now})"
            )
        self._now = now
        self._events_processed = int(snapshot["events_processed"])

    def every(self, interval, fn, *args, start_delay=None, jitter_fn=None):
        """Schedule ``fn(*args)`` periodically.

        Returns a :class:`PeriodicTask` whose ``cancel()`` stops the cycle.
        ``jitter_fn``, if given, is called per period and must return extra
        nanoseconds (possibly negative; the total delay is clamped to a
        minimum of 1 ns so the clock always advances between firings).
        """
        return PeriodicTask(self, interval, fn, args, start_delay, jitter_fn)  # lint: disable=SNAP003(periodic tasks wrap heap events; owners re-arm them from their own checkpoints on restore)


class PeriodicTask:
    """A repeating event created by :meth:`Simulator.every`."""

    __slots__ = ("_sim", "interval", "fn", "args", "_event", "_cancelled", "_jitter_fn")

    def __init__(self, sim, interval, fn, args, start_delay, jitter_fn):
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        self._sim = sim
        self.interval = int(interval)
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._jitter_fn = jitter_fn
        first = self.interval if start_delay is None else int(start_delay)
        self._event = sim.schedule(first, self._fire)

    def _fire(self):
        if self._cancelled:
            return
        self.fn(*self.args)
        if self._cancelled:  # fn may have cancelled us
            return
        delay = self.interval
        if self._jitter_fn is not None:
            # Clamp to >= 1 ns: a zero total delay re-fires at the same
            # timestamp, so a jitter function returning <= -interval
            # would livelock the run (time never advances past the task).
            delay = max(1, delay + int(self._jitter_fn()))
            if self._cancelled:  # jitter_fn may also have cancelled us
                return
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self):
        """Stop the periodic task.  Idempotent."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
