"""Unit tests for the discrete-event engine."""

import cProfile
import dis
import enum
import json
import pstats
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerViolation, install, uninstall
from repro.core import ratelimit as ratelimit_module
from repro.core.plb.reorder import ReorderEngine
from repro.core.ratelimit import RateLimitDecision
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build, scenario_spec
from repro.sim import MS, SECOND, US, Simulator, SimulationError, from_seconds, to_seconds
from repro.sim import engine as engine_module
from repro.sim.rng import RngRegistry, derived_stream
from tests import test_golden_reports as golden_reports


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, fired.append, "c")
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in range(10):
            sim.schedule(5, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_zero_delay_runs_at_same_timestamp(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(0, lambda: seen.append(sim.now))

        sim.schedule(7, first)
        sim.run()
        assert seen == [7]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(50, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(10, lambda: None)

    def test_events_scheduled_from_handlers(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(10, chain, n + 1)

        sim.schedule(10, chain, 1)
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == 50


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        drop = sim.schedule(20, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.cancelled is False


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run_until(50)
        assert fired == ["early"]
        assert sim.now == 50

    def test_run_until_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(100, fired.append, "b")
        sim.run_until(50)
        sim.run_until(200)
        assert fired == ["a", "b"]
        assert sim.now == 200

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(50, fired.append, "edge")
        sim.run_until(50)
        assert fired == ["edge"]

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(100)
        with pytest.raises(SimulationError):
            sim.run_until(50)

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, sim.stop)
        sim.schedule(30, fired.append, "b")
        sim.run()
        assert fired == ["a"]
        assert sim.pending == 1

    def test_max_events_limit(self):
        sim = Simulator()
        for index in range(10):
            sim.schedule(index + 1, lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        sim.every(10, lambda: times.append(sim.now))
        sim.run_until(35)
        assert times == [10, 20, 30]

    def test_start_delay(self):
        sim = Simulator()
        times = []
        sim.every(10, lambda: times.append(sim.now), start_delay=3)
        sim.run_until(25)
        assert times == [3, 13, 23]

    def test_cancel_stops_cycle(self):
        sim = Simulator()
        times = []
        task = sim.every(10, lambda: times.append(sim.now))
        sim.schedule(25, task.cancel)
        sim.run_until(100)
        assert times == [10, 20]

    def test_self_cancel_inside_callback(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            if len(count) == 2:
                task.cancel()

        task = sim.every(5, tick)
        sim.run_until(100)
        assert len(count) == 2

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0, lambda: None)

    def test_jitter_fn_applied(self):
        sim = Simulator()
        times = []
        sim.every(10, lambda: times.append(sim.now), jitter_fn=lambda: 2)
        sim.run_until(40)
        assert times == [10, 22, 34]

    def test_cancel_inside_jitter_fn(self):
        # A jitter_fn that cancels its own task must stop the cycle
        # without scheduling one more firing.
        sim = Simulator()
        times = []

        def jitter():
            if len(times) == 2:
                task.cancel()
            return 0

        task = sim.every(10, lambda: times.append(sim.now), jitter_fn=jitter)
        sim.run_until(200)
        assert times == [10, 20]
        assert sim.pending == 0

    def test_negative_jitter_clamps_at_one_ns_delay(self):
        # Jitter larger than the interval clamps the next delay to 1 ns:
        # the clock always advances between firings (a 0-delay clamp let
        # the task re-fire at the same timestamp forever -- a livelock).
        sim = Simulator()
        times = []

        def tick():
            times.append(sim.now)
            if len(times) == 3:
                task.cancel()

        task = sim.every(10, tick, jitter_fn=lambda: -50)
        sim.run_until(100)
        assert times == [10, 11, 12]

    def test_pathological_jitter_cannot_livelock_the_run(self):
        # Regression: with the clamp at 0, a jitter_fn returning
        # <= -interval re-fired at the same instant and run_until never
        # returned.  The 1 ns floor bounds the firings per window.
        sim = Simulator()
        fired = []
        sim.every(10, lambda: fired.append(sim.now), jitter_fn=lambda: -1_000)
        sim.run_until(50)
        assert sim.now == 50
        assert fired == [10 + i for i in range(41)]

    def test_small_negative_jitter_shortens_period(self):
        sim = Simulator()
        times = []
        sim.every(10, lambda: times.append(sim.now), jitter_fn=lambda: -4)
        sim.run_until(25)
        assert times == [10, 16, 22]


class TestStopAndScheduleEdgeCases:
    def test_stop_during_run_until_leaves_now_at_last_event(self):
        # run_until only fast-forwards now to the boundary on a clean
        # finish; a stop() mid-run must leave now at the stopping event.
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, sim.stop)
        sim.schedule(30, fired.append, "b")
        sim.run_until(100)
        assert fired == ["a"]
        assert sim.now == 20
        assert sim.pending == 1

    def test_schedule_at_exactly_now_fires_same_timestamp(self):
        sim = Simulator()
        seen = []

        def handler():
            sim.schedule_at(sim.now, lambda: seen.append(sim.now))

        sim.schedule(40, handler)
        sim.run()
        assert seen == [40]


class TestPendingAccounting:
    """The live-event counter must stay exact across cancel/pop paths."""

    def test_cancel_then_pop_accounting(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(10, fired.append, "keep")
        drop = sim.schedule(5, fired.append, "drop")
        assert sim.pending == 2
        drop.cancel()
        assert sim.pending == 1
        sim.run()  # pops both heap entries: one cancelled, one live
        assert fired == ["keep"]
        assert sim.pending == 0
        assert keep.cancelled is False

    def test_late_cancel_after_fire_does_not_double_decrement(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.run()
        assert sim.pending == 0
        event.cancel()  # already fired: must be a no-op on the counter
        assert sim.pending == 0
        sim.schedule(10, lambda: None)
        assert sim.pending == 1

    def test_event_cancelling_itself_inside_callback(self):
        sim = Simulator()
        holder = {}
        holder["event"] = sim.schedule(10, lambda: holder["event"].cancel())
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        other = sim.schedule(20, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1
        other.cancel()
        assert sim.pending == 0

    def test_pending_tracks_run_until_boundary(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(100, lambda: None)
        sim.run_until(50)
        assert sim.pending == 1

    def test_pending_with_periodic_task(self):
        sim = Simulator()
        task = sim.every(10, lambda: None)
        sim.run_until(35)
        assert sim.pending == 1  # the next firing is queued
        task.cancel()
        assert sim.pending == 0


class TestMaxEvents:
    def test_zero_fires_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 1)
        sim.schedule(20, fired.append, 2)
        sim.run(max_events=0)
        assert fired == []
        assert sim.pending == 2
        assert sim.now == 0

    def test_one_fires_exactly_one(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 1)
        sim.schedule(20, fired.append, 2)
        sim.run(max_events=1)
        assert fired == [1]
        assert sim.pending == 1


class TestPost:
    def test_post_orders_with_schedule_and_returns_no_handle(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, "a")
        assert sim.post(5, fired.append, "b") is None
        sim.schedule(5, fired.append, "c")
        sim.post(1, fired.append, "first")
        assert sim.pending == 4
        sim.run()
        assert fired == ["first", "a", "b", "c"]
        assert sim.events_processed == 4
        assert sim.pending == 0

    def test_negative_delay_rejected_like_schedule(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(-1, lambda: None)
        assert sim.pending == 0

    def test_negative_delay_reports_event_causality_when_sanitized(self):
        install()
        try:
            sim = Simulator()
            with pytest.raises(SanitizerViolation) as excinfo:
                sim.post(-1, lambda: None)
        finally:
            uninstall()
        assert excinfo.value.check == "event-causality"


class TestPush:
    """``sim.push((sim.now + delay, sim.next_seq(), fn, args, None))`` is
    ``post(delay, fn, *args)`` without the frame."""

    def test_one_counter_serves_all_four(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(5, fired.append, "schedule")
        sim.post(5, fired.append, "post")
        sim.push((sim.now + 5, sim.next_seq(), fired.append, ("push",), None))
        sim.rearm(event, 5)
        assert sorted(entry[1] for entry in sim._heap) == [0, 1, 2]
        assert event.seq == 3
        assert sim.next_seq() == 4
        sim.run()
        assert fired == ["post", "push", "schedule"]
        assert (sim.events_processed, sim.pending) == (3, 0)

    def test_entry_pushed_behind_the_clock_is_caught_when_sanitized(self):
        install()
        try:
            sim = Simulator()
        finally:
            uninstall()         # the sanitizer is resolved at construction
        sim.post(100, lambda: None)
        sim.run()
        sim.push((50, sim.next_seq(), lambda: None, (), None))
        with pytest.raises(SanitizerViolation) as excinfo:
            sim.run()
        assert excinfo.value.check == "simtime-monotonicity"


class TestRearm:
    def test_moves_event_and_takes_a_fresh_tie_break(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(10, fired.append, "timer")
        sim.schedule(30, fired.append, "a")
        sim.rearm(timer, 30)           # now ties with "a", but queued after it
        sim.schedule(30, fired.append, "b")
        assert (timer.time, sim.pending) == (30, 3)
        sim.run()
        assert fired == ["a", "timer", "b"]
        assert sim.events_processed == 3

    def test_rearm_of_fired_event_requeues_like_schedule(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "x")
        sim.run()
        sim.schedule(5, fired.append, "a")   # (15, 1)
        sim.rearm(event, 5)                  # (15, 2): what schedule() takes next
        assert (event.time, event.seq, event.fired, sim.pending) == (15, 2, False, 2)
        sim.schedule(5, fired.append, "b")   # (15, 3)
        sim.run()
        assert fired == ["x", "a", "x", "b"]
        assert (sim.events_processed, sim.pending, event.fired) == (4, 0, True)

    def test_fired_event_refuses_cancelled_or_earlier(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.run_until(20)
        with pytest.raises(SimulationError):
            sim.rearm(event, -1)         # before now, as schedule() refuses
        assert (event.time, event.seq, sim.pending) == (10, 0, 0)
        event.cancel()
        with pytest.raises(SimulationError):
            sim.rearm(event, 5)
        assert sim.pending == 0

    def test_fired_event_into_the_past_reports_event_causality_when_sanitized(self):
        install()
        try:
            sim = Simulator()
            event = sim.schedule(10, lambda: None)
            sim.run_until(20)
            with pytest.raises(SanitizerViolation) as excinfo:
                sim.rearm(event, -5)
        finally:
            uninstall()
        assert excinfo.value.check == "event-causality"
        assert (event.time, event.seq, sim.pending) == (10, 0, 0)

    def test_pending_event_moved_earlier_stays_a_contract_error_when_sanitized(self):
        install()
        try:
            sim = Simulator()
            event = sim.schedule(10, lambda: None)
            with pytest.raises(SimulationError) as excinfo:
                sim.rearm(event, 5)
        finally:
            uninstall()
        assert not isinstance(excinfo.value, SanitizerViolation)
        assert (event.time, event.seq) == (10, 0)

    def test_handler_rearms_its_own_event(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 4:
                sim.rearm(holder[0], 10)

        holder = [sim.schedule(10, tick)]
        sim.run()
        assert fired == [10, 20, 30, 40]
        assert (sim.events_processed, sim.pending) == (4, 0)

    def test_rearm_of_cancelled_event_raises(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        with pytest.raises(SimulationError):
            sim.rearm(event, 20)

    def test_rearm_to_earlier_time_raises(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        with pytest.raises(SimulationError):
            sim.rearm(event, 9)
        with pytest.raises(SimulationError):
            sim.rearm(event, -1)
        assert (event.time, event.seq) == (10, 0)  # untouched by the refusals
        sim.rearm(event, 10)                        # later-or-*equal* is fine

    @pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "sanitized"])
    def test_old_slot_inside_run_until_new_slot_beyond_it(self, sanitized):
        if sanitized:
            install()
        try:
            sim = Simulator()
        finally:
            uninstall()         # the sanitizer is resolved at construction
        fired = []
        event = sim.schedule(10, fired.append, "x")
        sim.rearm(event, 60)
        sim.run_until(50)              # the stale entry at t=10 surfaces here
        assert fired == []
        assert (sim.pending, sim.events_processed, sim.now) == (1, 0, 50)
        sim.run_until(100)
        assert fired == ["x"]
        assert sim.events_processed == 1

    def test_cancel_after_rearm_is_skipped_once(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "x")
        sim.schedule(20, fired.append, "y")
        sim.rearm(event, 30)
        assert sim.pending == 2
        event.cancel()
        assert sim.pending == 1
        sim.run()
        assert fired == ["y"]
        assert (sim.pending, sim.events_processed) == (0, 1)


class _Spelled:
    """The reference: ``rearm`` is ``cancel()`` + ``schedule()`` (just
    ``schedule()`` for a fired event) and ``post`` is ``schedule()``, on
    the same engine."""

    def __init__(self):
        self.sim = Simulator()
        self.log = []
        self.handles = []

    def _fire(self, label):
        self.log.append((self.sim.now, label))

    def schedule(self, delay, label):
        self.handles.append(self.sim.schedule(delay, self._fire, label))

    def post(self, delay, label):
        self.sim.schedule(delay, self._fire, label)

    push = post

    def repeat(self, delay, label, times):
        """A handler that logs, then queues its own event again ``times``
        more times, ``delay`` after each firing."""
        index = len(self.handles)
        left = [times]

        def fire():
            self._fire(label)
            if left[0]:
                left[0] -= 1
                self.rearm(index, delay)

        self.handles.append(self.sim.schedule(delay, fire))

    def cancel(self, index):
        self.handles[index].cancel()

    def rearm(self, index, delay):
        old = self.handles[index]
        old.cancel()
        self.handles[index] = self.sim.schedule(delay, old.fn, *old.args)


class _Native(_Spelled):
    def post(self, delay, label):
        self.sim.post(delay, self._fire, label)

    def push(self, delay, label):
        sim = self.sim
        sim.push((sim.now + delay, sim.next_seq(), self._fire, (label,), None))

    def rearm(self, index, delay):
        self.sim.rearm(self.handles[index], delay)


def _advance_run_until(sim, amount):
    sim.run_until(sim.now + amount)


def _advance_counted(sim, amount):
    for _ in range(amount):
        sim.run(max_events=1)


def _advance_step(sim, amount):
    for _ in range(amount):
        sim.step()


_DELAYS = st.sampled_from([0, 1, 2, 3, 5])  # few values: timestamps collide
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("post"), _DELAYS),
        st.tuples(st.just("push"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("rearm"), st.integers(0, 40), _DELAYS),
        st.tuples(st.just("repeat"), _DELAYS, st.integers(0, 3)),
        st.tuples(st.just("advance"), st.integers(0, 4)),
    ),
    max_size=40,
)


class TestRearmAndPostAreTheParentsSemantics:
    """``rearm``/``post``/``push`` against the cancel-and-reschedule
    spelling, through every entry point that can meet a stale (rearmed)
    heap entry, and with handlers that re-queue their own fired event:
    entries from all four, interleaved, fire in the ``(time, seq)`` order
    the all-``schedule`` spelling (``post`` without the handle) gives."""

    @pytest.mark.parametrize("sanitized, advance", [
        (False, _advance_run_until),
        (True, _advance_run_until),
        (False, _advance_counted),
        (False, _advance_step),
    ], ids=["run_until", "sanitized", "max_events", "step"])
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_same_firing_sequence(self, sanitized, advance, ops):
        if sanitized:
            install()
        try:
            native, spelled = _Native(), _Spelled()
        finally:
            uninstall()         # the sanitizer is resolved at construction
        label = 0
        for op in ops:
            kind = op[0]
            for side in (native, spelled):
                if kind in ("schedule", "post", "push"):
                    getattr(side, kind)(op[1], label)
                elif kind == "repeat":
                    side.repeat(op[1], label, op[2])
                elif kind == "advance":
                    advance(side.sim, op[1])
                elif side.handles:
                    index = op[1] % len(side.handles)
                    event = side.handles[index]
                    if kind == "cancel":
                        side.cancel(index)
                    elif event.fired and not event.cancelled:
                        side.rearm(index, op[2])
                    elif not event.cancelled:
                        # Later-or-equal: the event's own instant plus a bit.
                        side.rearm(index, event.time - side.sim.now + op[2])
            label += 1
            assert native.log == spelled.log
            assert native.sim.now == spelled.sim.now
            assert native.sim.events_processed == spelled.sim.events_processed
            assert native.sim.pending == spelled.sim.pending
        native.sim.run()
        spelled.sim.run()
        assert native.log == spelled.log
        assert native.sim.pending == spelled.sim.pending == 0


def _executed_bytecodes(handle):
    """Bytecodes CPython executes while ``handle`` runs (a ``sys.settrace``
    opcode tracer: each new frame switches to per-opcode events, and the
    frame's own tracer only counts them)."""
    executed = 0

    def count_opcodes(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return count_opcodes

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return count_opcodes

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        handle.run()
    finally:
        sys.settrace(previous)
    return executed


_CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are pinned for CPython 3.11, CI's interpreter",
)


def _profiled_calls(handle):
    """Python calls ``cProfile`` counts while ``handle`` runs."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        handle.run()
    finally:
        profiler.disable()
    return sum(row[1] for row in pstats.Stats(profiler).stats.values())


class TestHeapTrafficPerPacket:
    """What the benchmark ledger cannot see or pin: ``sim.events_per_pkt``
    counts fired events only, so pushes and ``Event`` allocations are pinned
    here, and so are the profiled calls per packet its ``*.calls_per_pkt``
    rows record."""

    SPEC = ScenarioSpec(
        name="heap-traffic",
        pods=(PodSpec(name="pod", data_cores=4, per_core_pps=200_000, mode="plb"),),
        workload=WorkloadSpec(kind="cbr", flows=64, tenants=4, load=0.7),
        duration_ns=5 * MS,
        seed=42,
    )

    def _run(self):
        handle = build(self.SPEC)
        handle.run()
        return handle.report()

    def test_in_order_packet_costs_five_pushes_and_no_event(self, monkeypatch):
        """Counts every heap push, ``sim.push`` included: ``push`` is bound
        at construction to the engine module's ``_heappush``, which is
        patched here before the build.  ``cProfile`` cannot see a call made
        through that ``functools.partial`` (nor ``next_seq``), which is why
        ``python.calls_per_pkt`` fell when the per-packet hops moved to
        ``push``, and why this count, bounded from below as well, is the
        pin: a site that pushed around ``_heappush`` would fall short."""
        plain = self._run()
        counts = {"pushes": 0, "events": 0}
        real_push = engine_module._heappush

        def counting_push(heap, entry):
            counts["pushes"] += 1
            real_push(heap, entry)

        class CountingEvent(engine_module.Event):
            __slots__ = ()

            def __init__(self, *args):
                counts["events"] += 1
                super().__init__(*args)

        monkeypatch.setattr(engine_module, "_heappush", counting_push)
        monkeypatch.setattr(engine_module, "Event", CountingEvent)
        assert self._run() == plain
        packets = plain["pods"]["pod"]["counters"]["rx_packets"]
        assert packets >= 2_000
        assert plain["pods"]["pod"]["reorder"]["in_order"] >= packets - 16
        # 5 fired events per packet (tick, RX DMA, CPU, TX DMA, deparser) plus
        # the occasional re-push of the rearmed reorder timer.  The source
        # tick re-queues its own Event, so only the reorder timers allocate.
        assert 5.0 <= counts["pushes"] / packets <= 5.1
        assert counts["events"] / packets <= 0.01

    def test_profiled_calls_per_in_order_packet(self):
        handle = build(self.SPEC)
        calls = _profiled_calls(handle)
        report = handle.report()
        packets = report["pods"]["pod"]["counters"]["rx_packets"]
        assert report["pods"]["pod"]["reorder"]["in_order"] >= packets - 16
        # Measured 33.3: room for a call or two, not for another hop's worth.
        assert calls / packets <= 36.3

    def test_profiled_calls_per_packet_on_an_az_shard(self):
        handle = build(scenario_spec("az-steady", quick=True))
        calls = _profiled_calls(handle)
        packets = handle.report()["uplink"]["counters"]["forwarded"]
        assert packets >= 5_000
        # Measured 42.1: the uplink, DPU and pod-pick hops on top of the pod's.
        assert calls / packets <= 45.1

    @_CPYTHON_311
    def test_bytecodes_per_in_order_packet(self):
        handle = build(self.SPEC.with_overrides(duration_ns=2 * MS))
        executed = _executed_bytecodes(handle)
        report = handle.report()
        packets = report["pods"]["pod"]["counters"]["rx_packets"]
        assert packets >= 1_000
        assert report["pods"]["pod"]["reorder"]["in_order"] >= packets - 16
        # Measured 1 115 (1 127 while the pod's latency record checked the
        # packet's stamps for None; 1 190 while the source tick and the head release
        # re-queued their timers through `rearm` and a population draw
        # looked its VNI up; 1 166 while histograms folded on read, so that
        # `record` only appended; 1 286 before frameless hops and
        # module-level enum members; 1 583 before the head fast path,
        # fold-on-read histograms and one-frame limiter).  The bound stays
        # where it was: the headroom is for per-stage latency records.
        assert executed / packets <= 1_215


class TestOverloadPathPerPacket:
    """The overload path, pinned as ``TestHeapTrafficPerPacket`` pins the
    in-order one: the golden ``burst-limited`` run (a x6 burst into a
    256-slot RX ring and a per-tenant limiter, with head-of-line
    timeouts, telemetry windows and checkpoints), per offered packet."""

    @staticmethod
    def _handle():
        handle = build(golden_reports._burst_limited())
        golden_reports._arm_bursts(handle)
        return handle

    @_CPYTHON_311
    def test_bytecodes_per_offered_packet(self):
        handle = self._handle()
        executed = _executed_bytecodes(handle)
        offered = handle.sources[0].emitted
        pod = handle.report()["pods"]["pod"]
        assert offered >= 10_000
        assert pod["counters"]["rate_limited_drops"] > 0
        assert pod["counters"]["rx_queue_drops"] > 0
        assert pod["reorder"]["hol_events"] > 0
        # Measured 1 157 (1 226 while the telemetry recorder recorded every
        # egress into a per-window sketch of its own and the pod's record
        # checked the packet's stamps for None; 1 312 while a marked
        # packet hashed its VNI, a meter drop sampled through `randrange`, a
        # drop bumped its counter through `incr` and the per-packet timers
        # re-queued through `rearm`).
        assert executed / offered <= 1_168

    def test_meter_index_is_hashed_once_per_marked_vni(self, monkeypatch):
        hashed = []
        real_hash = ratelimit_module.crc32_vni_hash

        def counting_hash(vni, seed):
            hashed.append(vni)
            return real_hash(vni, seed=seed)

        monkeypatch.setattr(ratelimit_module, "crc32_vni_hash", counting_hash)
        handle = self._handle()
        limiter = handle.pods["pod"].nic.rate_limiter
        admit, marked = limiter.admit, set()
        metered = (RateLimitDecision.ALLOW_MARKED, RateLimitDecision.DROP_METER)

        def recording_admit(vni, now_ns):
            decision = admit(vni, now_ns)
            if decision in metered:
                marked.add(vni)
            return decision

        limiter.admit = recording_admit
        handle.run()
        assert limiter.decisions[RateLimitDecision.DROP_METER] > len(marked) > 0
        assert len(hashed) <= len(marked)

    def test_a_fired_hol_timer_rearms_its_own_handle(self, monkeypatch):
        allocated = [0]
        timeouts = {"fired": 0, "rearmed": 0}

        class CountingEvent(engine_module.Event):
            __slots__ = ()

            def __init__(self, *args):
                allocated[0] += 1
                super().__init__(*args)

        real_on_timeout = ReorderEngine._on_timeout

        def watched_on_timeout(engine, ordq):
            before, event = allocated[0], engine._queues[ordq].timeout_event
            real_on_timeout(engine, ordq)
            assert allocated[0] == before
            timeouts["fired"] += 1
            if engine._queues[ordq].timeout_event is event and not event.fired:
                timeouts["rearmed"] += 1

        monkeypatch.setattr(engine_module, "Event", CountingEvent)
        monkeypatch.setattr(ReorderEngine, "_on_timeout", watched_on_timeout)
        self._handle().run()
        assert timeouts["fired"] > 0
        assert timeouts["rearmed"] > 0


def _per_packet_functions():
    """Every function an in-order packet (or an AZ hop, or an overload
    exit) runs, by name."""
    from repro.core.gateway import GwPodRuntime
    from repro.core.nic import NicPipeline
    from repro.core.plb.dispatch import PlbDispatcher
    from repro.core.plb.reorder import ReorderEngine
    from repro.core.ratelimit import TwoStageRateLimiter, _HitterSampler
    from repro.cpu.core import CpuCore
    from repro.topology import DpuPreClassifier, EcmpUplink, FlowPodDispatch
    from repro.workloads.generators import CbrSource, FlowPopulation

    functions = (
        CbrSource._tick, FlowPopulation.choose,
        NicPipeline.ingress, NicPipeline.on_cpu_completion, NicPipeline._transmit,
        NicPipeline._drop,
        CpuCore.enqueue, CpuCore._serve, CpuCore._finish,
        PlbDispatcher.dispatch,
        ReorderEngine.writeback, ReorderEngine._drain, ReorderEngine._release,
        ReorderEngine._transmit_best_effort, ReorderEngine._arm_timeout,
        ReorderEngine._on_timeout,
        TwoStageRateLimiter.admit, _HitterSampler.observe,
        GwPodRuntime._verdict, GwPodRuntime._on_egress,
        EcmpUplink.forward, FlowPodDispatch.forward, DpuPreClassifier.ingress,
    )
    return {function.__qualname__: function for function in functions}


def _enum_class_loads(function):
    """``(Enum class, member)`` for every ``LOAD_GLOBAL`` of an Enum
    subclass directly followed by a ``LOAD_ATTR``, nested code included."""
    found = []
    codes = [function.__code__]
    while codes:
        code = codes.pop()
        codes.extend(const for const in code.co_consts if hasattr(const, "co_code"))
        instructions = list(dis.get_instructions(code))
        for load, attr in zip(instructions, instructions[1:]):
            if load.opname != "LOAD_GLOBAL" or attr.opname != "LOAD_ATTR":
                continue
            owner = function.__globals__.get(load.argval)
            if isinstance(owner, type) and issubclass(owner, enum.Enum):
                found.append((load.argval, attr.argval))
    return found


class _Probe(enum.Enum):
    MEMBER = 1


_MEMBER = _Probe.MEMBER


def _loads_through_the_class(value):
    return value is _Probe.MEMBER


def _loads_a_constant(value):
    return value is _MEMBER


class TestNoEnumClassLoadPerPacket:
    """``Verdict.FORWARD`` in a function body loads the member through its
    class, and ``EnumType`` defines ``__getattr__``, so CPython 3.11 takes
    the slower slot hook: ~139 ns against ~49 ns for a plain class
    attribute, and neither the bytecode count nor ``cProfile`` sees it.
    The per-packet path compares against module-level constants
    (``_FORWARD = Verdict.FORWARD``) instead."""

    @pytest.mark.parametrize("name", sorted(_per_packet_functions()))
    def test_members_are_module_constants(self, name):
        assert _enum_class_loads(_per_packet_functions()[name]) == []

    def test_the_walk_finds_a_class_load(self):
        assert _enum_class_loads(_loads_through_the_class) == [("_Probe", "MEMBER")]
        assert _enum_class_loads(_loads_a_constant) == []


class TestUnits:
    def test_constants(self):
        assert US == 1_000
        assert MS == 1_000_000
        assert SECOND == 1_000_000_000

    def test_round_trip(self):
        assert to_seconds(from_seconds(1.5)) == pytest.approx(1.5)
        assert from_seconds(0.000001) == 1000


class TestRngRegistry:
    def test_streams_are_deterministic(self):
        first = RngRegistry(seed=5).stream("x").random()
        second = RngRegistry(seed=5).stream("x").random()
        assert first == second

    def test_streams_are_independent(self):
        rngs = RngRegistry(seed=5)
        a = rngs.stream("a")
        b = rngs.stream("b")
        assert a is not b
        assert a.random() != b.random()

    def test_same_name_same_stream(self):
        rngs = RngRegistry(seed=5)
        assert rngs.stream("x") is rngs.stream("x")

    def test_seed_changes_streams(self):
        assert (
            RngRegistry(seed=1).stream("x").random()
            != RngRegistry(seed=2).stream("x").random()
        )

    def test_reset_rederives(self):
        rngs = RngRegistry(seed=9)
        first = rngs.stream("x").random()
        rngs.reset()
        assert rngs.stream("x").random() == first

    def test_derived_stream_matches_the_registry(self):
        assert (
            derived_stream("x", seed=5).random() == RngRegistry(seed=5).stream("x").random()
        )

    def test_checkpoint_lists_streams_by_name_as_json(self):
        rngs = RngRegistry(seed=3)
        rngs.stream("zeta").random()
        rngs.stream("alpha")
        snapshot = rngs.checkpoint()
        assert [name for name, _ in snapshot["streams"]] == ["alpha", "zeta"]
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_restore_repositions_live_streams_in_place(self):
        rngs = RngRegistry(seed=3)
        bound = rngs.stream("traffic")  # a component's construction-time binding
        snapshot = rngs.checkpoint()
        expected = [bound.random() for _ in range(3)]
        rngs.restore(json.loads(json.dumps(snapshot)))
        assert rngs.stream("traffic") is bound
        assert [bound.random() for _ in range(3)] == expected


class TestClockErrors:
    def test_restore_clock_moves_forward(self):
        sim = Simulator()
        sim.restore({"now": 5 * MS, "events_processed": 7, "seq": 4})
        assert sim.checkpoint() == {"now": 5 * MS, "events_processed": 7, "seq": 4}
        event = sim.schedule(0, lambda: None)
        assert (event.time, event.seq, sim.seq) == (5 * MS, 4, 5)

    def test_restore_clock_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(10 * MS)
        with pytest.raises(SimulationError, match="backwards"):
            sim.restore({"now": 5 * MS, "events_processed": 0})

    def test_restore_clock_mid_run_rejected(self):
        sim = Simulator()
        errors = []

        def restore():
            try:
                sim.restore({"now": 9 * MS, "events_processed": 0})
            except SimulationError as error:
                errors.append(str(error))

        sim.schedule(1 * MS, restore)
        sim.run()
        assert errors == ["cannot restore the clock mid-run"]
        assert sim.now == 1 * MS

    @pytest.mark.parametrize("entry", ["run", "run_until"])
    def test_reentrant_run_rejected(self, entry):
        sim = Simulator()
        errors = []

        def nested():
            try:
                if entry == "run":
                    sim.run()
                else:
                    sim.run_until(sim.now + 1)
            except SimulationError as error:
                errors.append(str(error))

        sim.schedule(1, nested)
        sim.run()
        assert errors == ["simulator is already running"]
