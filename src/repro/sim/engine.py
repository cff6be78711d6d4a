"""Event loop for the discrete-event simulator.

The design is intentionally small: a binary heap of ``(time, seq, fn, args,
event_or_None)`` entries and a handful of run primitives.  Components
interact by scheduling callbacks; there is no process/coroutine machinery to
keep the hot path cheap (the reorder and dispatch models schedule millions of
events per simulated second).

Four ways to queue a callback, one heap entry each, all numbered by one
sequence source (``next_seq``):

* ``schedule(delay, fn, *args)`` returns a cancellable :class:`Event` whose
  ``(time, seq)`` a checkpoint may record;
* ``post(delay, fn, *args)`` is the same push with no ``Event`` allocated,
  for callers that keep no handle.  Anything that is ever cancelled, or
  checkpointed by ``(time, seq)``, needs ``schedule``;
* ``rearm(event, delay)`` queues an existing handle again and takes the
  next sequence number, exactly as ``schedule()`` would.  A *pending*
  event moves to a later-or-equal instant in place (``cancel()`` +
  ``schedule()`` without the second entry): the heap entry stays where it
  is, and when that stale entry surfaces (``entry seq != event.seq``) the
  run loop re-pushes it, uncounted, at ``(event.time, event.seq)``.  The
  old slot sorts first, so the event still fires at the ``(time, seq)``
  the cancel-and-reschedule spelling gives it.  A *fired* event -- a
  periodic handler re-arming itself -- is pushed afresh, one entry as
  ``schedule()`` pushes, with no new ``Event``.  Every tie-break is
  unchanged;
* ``sim.push((sim._now + delay, sim.next_seq(), fn, args, None))`` is
  ``post(delay, fn, *args)`` without the Python frame: ``push`` and
  ``next_seq`` are C callables.  It skips ``post``'s
  negative-delay check, so it is allowed only where ``delay`` is an
  ``int`` >= 0 fixed when the caller was built, or where the site rejects
  a negative delay exactly as ``post`` does (by calling ``post`` for it).
  ``next_seq`` is rebound when a snapshot restores ``seq``, so it is read
  off the simulator per call, never kept elsewhere.

A restore takes no number: ``schedule_slot`` puts a snapshot's pending
event back at the ``(time, seq)`` it was given (see
:func:`repro.controlplane.snapshot.restore`).

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
  delegating to ``step`` per event; a sanitized run calls ``step`` per
  event, so checked execution is one function, ``_step_checked``,
  whichever entry point drives it;
* same-timestamp batches write ``_now`` once per distinct timestamp.

``pending`` is derived (heap entries minus cancelled ones still queued), so
no per-event counter is kept.  None of this changes observable behaviour:
event order, ``now``, ``events_processed`` and ``pending`` are identical on
the fast and checked paths (asserted by the engine test suite).

Timers are handles held for their owner's whole life, never ``None``: a
timer that is off is an :class:`Event` that is not pending (``idle`` makes
one at birth, ``cancel()`` turns one off), and a :class:`PeriodicTask`
is one event re-queued after every firing.  An owner declares the handle
in ``STATE``, and a restore puts it back in its ``(time, seq)`` slot.
"""

import functools
import heapq
import itertools

from repro.analysis.sanitizer import get_sanitizer
from repro.controlplane.snapshot import Stateful

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
    (:meth:`cancel`), moved later, or queued again once it has fired
    (:meth:`Simulator.rearm`).  Cancelled
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
        # The heap tie-break: a snapshot records ``(time, seq)`` and a
        # restore puts the event back in exactly that slot.
        self.seq = seq

    def cancel(self):
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "fired" if self.fired else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} fn={name} {state}>"


class Simulator(Stateful):
    """Discrete-event loop with an integer-nanosecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(10 * US, my_handler, arg1, arg2)
        sim.run_until(1 * SECOND)

    Handlers receive their ``args`` but not the simulator; components keep a
    reference to the simulator they were constructed with.

    ``step`` is bound per instance at construction: the sanitized variant
    when a sanitizer is installed, the unchecked variant otherwise.

    Its snapshot is the clock, the processed-event count and ``seq``,
    never the heap: at a quiescent checkpoint every pending event sits
    in its owner's ``STATE``, and restoring the owner puts it back in
    its own ``(time, seq)`` slot (:meth:`schedule_slot`).
    """

    __slots__ = (
        "_now",
        "_heap",
        "next_seq",
        "push",
        "_events_processed",
        "_running",
        "_sanitizer",
        "step",
    )
    STATE = (("now", "_now"), ("events_processed", "_events_processed"), "seq")
    DERIVED = {
        "_heap": "entries hold closures, never serialized; each pending event is "
                 "restored from its owner's snapshot into its own (time, seq) slot",
        "next_seq": "the counter behind seq, bound for the hot path; restore rebinds it",
        "_running": "run-loop transient; checkpoints are only taken between runs",
    }

    def __init__(self):
        self._now = 0
        # ``_heap`` is never rebound: ``push`` holds it, bound once to the
        # module's ``_heappush``, and ``next_seq`` is the one tie-break
        # source (rebound only by a restore of ``seq``).
        self._heap = []
        self.next_seq = itertools.count().__next__
        self.push = functools.partial(_heappush, self._heap)
        self._events_processed = 0
        self._running = False
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
    def seq(self):
        """The sequence number ``next_seq()`` hands out next; reading it
        takes none."""
        # ``itertools.count`` shows its position only in its repr: ``count(5)``.
        return int(repr(self.next_seq.__self__)[6:-1])

    @seq.setter
    def seq(self, seq):
        if seq < self.seq:
            raise SimulationError(
                f"cannot restore the sequence counter backwards to {seq} (next={self.seq})"
            )
        self.next_seq = itertools.count(seq).__next__

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now.

        Returns an :class:`Event` that can be cancelled.  ``delay`` must be a
        non-negative integer; a zero delay runs after the current handler
        completes but at the same timestamp.
        """
        if delay < 0:
            self._reject_past(delay, fn)
        time = self._now + int(delay)
        seq = self.next_seq()
        event = Event(time, fn, args, seq)
        self.push((time, seq, fn, args, event))
        return event

    def post(self, delay, fn, *args):
        """:meth:`schedule` without a handle: same ordering and negative-delay
        rejection, no :class:`Event` allocated, nothing to cancel."""
        if delay < 0:
            self._reject_past(delay, fn)
        self.push((self._now + int(delay), self.next_seq(), fn, args, None))

    def rearm(self, event, delay):
        """Queue ``event`` again, ``delay`` ns from now, reusing the handle.

        A *pending* event moves in place: ``event.cancel()`` +
        ``schedule(delay, ...)`` without the second heap entry and
        :class:`Event`.  The new instant must not precede the current one:
        the entry is re-pushed when its old slot surfaces.  A *fired* event
        has no heap entry left, so it is pushed afresh -- ``schedule(delay,
        event.fn, *event.args)`` with the same handle.  Either way it takes
        the next sequence number; a cancelled event cannot be rearmed.  A
        fired event sent into the past is refused as ``post`` refuses it
        (an ``event-causality`` violation under a sanitizer); moving a
        pending event earlier than its own instant is a plain
        ``SimulationError``.
        """
        time = self._now + int(delay)
        if event.fired and not event.cancelled and time >= self._now:
            # The common case first: a handler re-queues its own event.
            seq = self.next_seq()
            event.time = time
            event.seq = seq
            event.fired = False
            self.push((time, seq, event.fn, event.args, event))
            return
        if event.cancelled or event.fired or time < event.time:
            if event.fired and not event.cancelled:
                self._reject_past(delay, event.fn)
            raise SimulationError(
                f"cannot rearm {event!r} to t={time}: cancelled, or earlier"
            )
        event.time = time
        event.seq = self.next_seq()

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

    def schedule_slot(self, time, seq, fn, *args):
        """:meth:`schedule_at` into the exact ``(time, seq)`` slot a
        snapshot recorded, taking no sequence number: how a restore puts
        a pending event back.  ``seq`` names one heap entry, so no live
        entry may hold it."""
        if time < self._now:
            self._reject_past(time - self._now, fn)
        event = Event(time, fn, args, seq)
        self.push((time, seq, fn, args, event))
        return event

    def idle(self, fn, *args):
        """A handle for ``fn(*args)`` that is not queued: the timer an owner
        holds while it is off, from birth.  It is cancelled, so it fires
        nothing, snapshots as no pending event, and starts with a fresh
        ``schedule``; a restore finds it there to put back in a slot."""
        event = Event(self._now, fn, args)
        event.cancelled = True
        return event

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

    def run(self):
        """Run until the event heap drains."""
        self._drive(_NEVER)

    def run_until(self, end_time):
        """Run events with timestamp <= ``end_time``, then set now to it.

        Events scheduled beyond ``end_time`` remain queued; a later
        ``run_until`` continues from where this one left off.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) is before now={self._now}"
            )
        self._drive(end_time)
        self._now = max(self._now, end_time)

    def _drive(self, end_time):
        """The run loop behind :meth:`run` and :meth:`run_until`."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            if self._sanitizer is not None:
                # Checked: one ``step`` per event.
                step = self.step
                while step(end_time):
                    pass
            else:
                # Fast path: pop first and push the single boundary-crossing
                # entry back, instead of peeking the heap root every event.
                heap = self._heap
                pop = _heappop
                now = self._now
                while heap:
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

    def restore(self, snapshot):
        """Jump the clock and the sequence counter forward to a checkpoint's.

        Must be called between runs (never from inside a handler) and
        moves neither backwards (``seq``'s setter refuses a lower
        number).  Every entry due before the restored instant (e.g. a
        freshly built source's first tick) is dropped and its event
        cancelled, so nothing fires behind the clock; restoring the
        owners then puts what the snapshot holds back in its slots.
        """
        if self._running:
            raise SimulationError("cannot restore the clock mid-run")
        now = int(snapshot["now"])
        if now < self._now:
            raise SimulationError(
                f"cannot restore clock backwards to t={now} (now={self._now})"
            )
        super().restore(snapshot)
        kept = []
        for entry in self._heap:
            event = entry[4]
            # A rearmed event's entry may be older than its own slot.
            if (entry[0] if event is None else event.time) >= now:
                kept.append(entry)
            elif event is not None:
                event.cancel()
        self._heap[:] = kept
        heapq.heapify(self._heap)

    def every(self, interval, fn, *args, start_delay=None):
        """Call ``fn(*args)`` every ``interval`` ns, first after
        ``start_delay`` (one interval when None).

        Returns a :class:`PeriodicTask`; its ``cancel()`` stops the cycle.
        """
        return PeriodicTask(self, interval, fn, args, start_delay)


class PeriodicTask(Stateful):
    """A repeating event created by :meth:`Simulator.every`.

    One :class:`Event` re-queued after each firing (``Simulator.rearm``)
    is the whole state: pending while the cycle runs, cancelled once it
    is stopped.  An owner declares its task in ``STATE``, and a restore
    puts the next firing back in its ``(time, seq)`` slot.
    """

    __slots__ = ("sim", "interval", "fn", "args", "_event")
    STATE = (("next_fire", "_event"),)

    def __init__(self, sim, interval, fn, args, start_delay):
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        self.sim = sim
        self.interval = int(interval)
        self.fn = fn
        self.args = args
        first = self.interval if start_delay is None else int(start_delay)
        self._event = sim.schedule(first, self._fire)

    def _fire(self):
        self.fn(*self.args)
        event = self._event
        if not event.cancelled:  # fn may have cancelled us
            self.sim.rearm(event, self.interval)

    def cancel(self):
        """Stop the periodic task.  Idempotent."""
        self._event.cancel()
