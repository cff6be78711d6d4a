"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerViolation, install, uninstall
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim import MS, SECOND, US, Simulator, SimulationError, from_seconds, to_seconds
from repro.sim import engine as engine_module
from repro.sim.rng import RngRegistry


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

    def test_rearm_of_fired_event_raises(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.rearm(event, 5)

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
    """The reference: ``rearm`` is ``cancel()`` + ``schedule()`` and ``post``
    is ``schedule()``, on the same engine."""

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

    def cancel(self, index):
        self.handles[index].cancel()

    def rearm(self, index, delay):
        old = self.handles[index]
        old.cancel()
        self.handles[index] = self.sim.schedule(delay, old.fn, *old.args)


class _Native(_Spelled):
    def post(self, delay, label):
        self.sim.post(delay, self._fire, label)

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
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("rearm"), st.integers(0, 40), _DELAYS),
        st.tuples(st.just("advance"), st.integers(0, 4)),
    ),
    max_size=40,
)


class TestRearmAndPostAreTheParentsSemantics:
    """``rearm``/``post`` against the cancel-and-reschedule spelling, through
    every entry point that can meet a stale (rearmed) heap entry."""

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
                if kind in ("schedule", "post"):
                    getattr(side, kind)(op[1], label)
                elif kind == "advance":
                    advance(side.sim, op[1])
                elif side.handles:
                    index = op[1] % len(side.handles)
                    event = side.handles[index]
                    if kind == "cancel":
                        side.cancel(index)
                    elif not (event.cancelled or event.fired):
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


class TestHeapTrafficPerPacket:
    """What the benchmark ledger cannot see: ``sim.events_per_pkt`` counts
    fired events only, so pushes and ``Event`` allocations are pinned here."""

    def _run(self):
        handle = build(ScenarioSpec(
            name="heap-traffic",
            pods=(PodSpec(name="pod", data_cores=4, per_core_pps=200_000, mode="plb"),),
            workload=WorkloadSpec(kind="cbr", flows=64, tenants=4, load=0.7),
            duration_ns=5 * MS,
            seed=42,
        ))
        handle.run()
        return handle.report()

    def test_in_order_packet_costs_five_pushes_and_one_event(self, monkeypatch):
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
        # the occasional re-push of the rearmed reorder timer; one Event (the
        # checkpointable source tick).  6.0 / 6.0 before post() and rearm().
        assert counts["pushes"] / packets <= 5.1
        assert counts["events"] / packets <= 1.1


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
