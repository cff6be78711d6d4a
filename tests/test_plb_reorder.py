"""Unit tests for the FIFO/BUF/BITMAP reorder engine (§4.1).

These drive the engine directly (no CPU model): packets are admitted
through the PLB dispatcher, the engine's one admission point, then
written back in controlled orders to exercise all four reorder-check
cases, the legal check, the 12-bit PSN window, timeouts and the active
drop flag.
"""

import json

import pytest

from repro.core.meta import PlbMeta
from repro.core.plb.reorder import (
    ReorderEngine,
    ReorderQueueConfig,
    ReorderStats,
    TxOutcome,
)
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet
from repro.sim import Simulator, US
from tests.reorder_admission import Admitter
from tests.timer_restore import live_events


class Harness:
    """Reorder engine + captured transmissions."""

    def __init__(self, queues=1, depth=4096, timeout_ns=100 * US):
        self.sim = Simulator()
        self.sent = []
        config = ReorderQueueConfig(queues, depth, timeout_ns)
        self.engine = ReorderEngine(self.sim, config, self._capture)
        self.admitter = Admitter(self.engine)
        self.dispatch = self.admitter.admit

    def _capture(self, packet, outcome):
        self.sent.append((packet.uid, outcome))

    def admit(self, ordq=0):
        """Admit one packet; returns it with meta attached."""
        packet = self.dispatch(ordq)
        assert packet is not None
        assert (packet.meta.ordq, packet.meta.timestamp_ns) == (ordq, self.sim.now)
        return packet

    def outcomes(self):
        return [outcome for _, outcome in self.sent]

    def uids(self):
        return [uid for uid, _ in self.sent]


class TestInOrderPath:
    def test_single_packet_round_trip(self):
        h = Harness()
        packet = h.admit()
        h.engine.writeback(packet)
        assert h.outcomes() == [TxOutcome.IN_ORDER]

    def test_sequential_writebacks_stay_in_order(self):
        h = Harness()
        packets = [h.admit() for _ in range(10)]
        for packet in packets:
            h.engine.writeback(packet)
        assert h.uids() == [p.uid for p in packets]
        assert h.outcomes() == [TxOutcome.IN_ORDER] * 10

    def test_out_of_order_writebacks_are_reordered(self):
        """The headline property: CPU returns in any order, wire sees
        arrival order."""
        h = Harness()
        packets = [h.admit() for _ in range(8)]
        for packet in reversed(packets):
            h.engine.writeback(packet)
        assert h.uids() == [p.uid for p in packets]
        assert h.outcomes() == [TxOutcome.IN_ORDER] * 8
        assert h.engine.stats.best_effort == 0

    def test_interleaved_admit_and_writeback(self):
        h = Harness()
        first = h.admit()
        second = h.admit()
        h.engine.writeback(second)  # waits for first
        assert h.sent == []
        third = h.admit()
        h.engine.writeback(first)
        assert h.uids() == [first.uid, second.uid]
        h.engine.writeback(third)
        assert h.uids() == [first.uid, second.uid, third.uid]

    def test_queues_are_independent(self):
        h = Harness(queues=2)
        a = h.admit(ordq=0)
        b = h.admit(ordq=1)
        # Queue 1's packet is not blocked by queue 0's missing head.
        h.engine.writeback(b)
        assert h.uids() == [b.uid]
        h.engine.writeback(a)
        assert h.uids() == [b.uid, a.uid]


class TestFifoCapacity:
    def test_admit_returns_none_when_full(self):
        h = Harness(depth=4)
        for _ in range(4):
            h.admit()
        assert h.dispatch() is None
        assert h.engine.stats.fifo_full == 1
        assert h.admitter.dispatcher.fifo_full_drops == 1

    def test_capacity_recovers_after_drain(self):
        h = Harness(depth=4)
        packets = [h.admit() for _ in range(4)]
        for packet in packets:
            h.engine.writeback(packet)
        assert h.dispatch() is not None

    def test_depth_cap_enforced(self):
        with pytest.raises(ValueError):
            ReorderQueueConfig(1, 5000)


class TestTimeouts:
    def test_head_timeout_releases_queue(self):
        """Case 1: a lost packet's slot is released after 100 us."""
        h = Harness()
        lost = h.admit()
        follower = h.admit()
        h.engine.writeback(follower)
        assert h.sent == []  # blocked by the hole
        h.sim.run_until(200 * US)
        # Timeout released the hole; the follower then went in order.
        assert h.uids() == [follower.uid]
        assert h.engine.stats.timeout_releases == 1
        assert h.engine.stats.hol_events == 1

    def test_late_writeback_goes_best_effort(self):
        h = Harness()
        late = h.admit()
        h.sim.run_until(200 * US)  # head timed out, window now empty
        h.engine.writeback(late)
        assert h.outcomes() == [TxOutcome.BEST_EFFORT]
        assert h.engine.stats.disorder_rate() == 1.0

    def test_no_timeout_before_deadline(self):
        h = Harness()
        h.admit()
        h.sim.run_until(99 * US)
        assert h.engine.stats.timeout_releases == 0
        h.sim.run_until(101 * US)
        assert h.engine.stats.timeout_releases == 1

    def test_timeout_clock_restarts_per_head(self):
        h = Harness()
        first = h.admit()
        h.sim.run_until(60 * US)
        second = h.admit()  # younger head-to-be
        h.engine.writeback(first)
        # The second packet's own deadline is 160us, not 100us.
        h.sim.run_until(140 * US)
        assert h.engine.stats.timeout_releases == 0
        h.sim.run_until(170 * US)
        assert h.engine.stats.timeout_releases == 1

class TestTimeoutTimer:
    """The head-timeout event is rearmed in place on every drain; its firing
    instant and tie-break must be what cancel-and-reschedule gave."""

    def test_withheld_head_times_out_on_its_own_deadline(self):
        h = Harness()
        h.sim.run_until(7 * US)
        h.admit()                       # withheld: never writes back
        releases = []
        h.engine.transmit_fn = lambda packet, outcome: releases.append(h.sim.now)
        # Later PSNs keep writing back, each drain re-arming the timer.
        for step in range(1, 40):
            h.sim.run_until(7 * US + step * 2 * US)
            h.engine.writeback(h.admit())
            assert h.engine.stats.hol_events == 0
        h.sim.run_until(7 * US + 100 * US - 1)
        assert h.engine.stats.hol_events == 0
        h.sim.run_until(7 * US + 100 * US)
        # Exactly one HOL event, at enqueue + timeout and not a drain later.
        assert h.engine.stats.hol_events == 1
        assert releases == [107 * US] * 39
        h.sim.run_until(1_000 * US)
        assert h.engine.stats.hol_events == 1
        assert live_events(h.sim) == 0

    def test_fifo_drains_empty_then_refills(self):
        h = Harness()
        h.engine.writeback(h.admit())
        assert live_events(h.sim) == 0       # emptied: the timer is cancelled
        h.sim.run_until(30 * US)
        h.admit()                       # refill: a fresh timer, own deadline
        assert live_events(h.sim) == 1
        h.sim.run_until(130 * US - 1)
        assert h.engine.stats.timeout_releases == 0
        h.sim.run_until(130 * US)
        assert h.engine.stats.timeout_releases == 1
        assert live_events(h.sim) == 0

    def test_reset_with_a_rearmed_timer_pending(self):
        h = Harness()
        h.admit()
        h.sim.run_until(10 * US)
        h.engine.writeback(h.admit())   # head still missing: timer rearmed
        assert live_events(h.sim) == 1
        assert h.engine.reset() == 2       # the hole and its buffered follower
        assert live_events(h.sim) == 0
        h.sim.run_until(50 * US)
        fresh = h.admit()               # new generation, new timer
        fresh.meta.epoch = h.engine.epoch
        h.sim.run_until(120 * US)       # the old deadline (100us) passes
        assert h.engine.stats.timeout_releases == 0
        h.engine.writeback(fresh)
        assert h.outcomes() == [TxOutcome.IN_ORDER]
        h.sim.run_until(1_000 * US)
        assert h.engine.stats.timeout_releases == 0

    def test_timer_armed_before_a_same_instant_writeback_fires_first(self):
        h = Harness()
        head = h.admit()                # timer queued here ...
        h.sim.schedule(100 * US, h.engine.writeback, head)  # ... writeback after
        h.sim.run_until(100 * US)
        assert h.engine.stats.hol_events == 1
        assert h.outcomes() == [TxOutcome.BEST_EFFORT]

    def test_timer_rearmed_after_a_same_instant_writeback_fires_second(self):
        h = Harness()
        head = h.admit()
        h.sim.schedule(100 * US, h.engine.writeback, head)
        h.sim.run_until(50 * US)
        follower = h.admit()
        h.engine.writeback(follower)    # re-arms: the timer now queues last
        h.sim.run_until(100 * US)
        assert h.engine.stats.hol_events == 0
        assert h.sent == [(head.uid, TxOutcome.IN_ORDER),
                          (follower.uid, TxOutcome.IN_ORDER)]
        h.sim.run_until(1_000 * US)
        assert h.engine.stats.timeout_releases == 0


class TestDropFlag:
    def test_drop_flag_releases_immediately(self):
        """§4.1 HOL fix 2: explicit drops free the head with no timeout."""
        h = Harness()
        dropped = h.admit()
        follower = h.admit()
        h.engine.writeback(follower)
        assert h.sent == []
        h.engine.notify_drop(dropped)
        # No simulated time had to pass.
        assert h.sim.now == 0
        assert h.uids() == [dropped.uid, follower.uid]
        assert h.sent[0][1] == TxOutcome.RELEASED_DROP_FLAG
        assert h.engine.stats.drop_flag_releases == 1
        assert h.engine.stats.hol_events == 0

    def test_drop_flag_mid_queue(self):
        h = Harness()
        first = h.admit()
        dropped = h.admit()
        third = h.admit()
        h.engine.notify_drop(dropped)
        h.engine.writeback(third)
        assert h.sent == []  # still waiting for first
        h.engine.writeback(first)
        assert h.uids() == [first.uid, dropped.uid, third.uid]
        assert [o for _, o in h.sent] == [
            TxOutcome.IN_ORDER,
            TxOutcome.RELEASED_DROP_FLAG,
            TxOutcome.IN_ORDER,
        ]


class TestPsnWindow:
    def test_psn12_aliasing_detected_as_case3(self):
        """A packet 4096 PSNs stale passes the legal check but must be
        caught by the reorder check's full-PSN comparison (case 3)."""
        h = Harness(depth=4096, timeout_ns=10 * US)
        stale = h.admit()  # psn 0
        # Let it time out and drain 4095 more PSNs through the queue so
        # the window wraps: psn 4096 now has the same low-12 bits as 0.
        h.sim.run_until(50 * US)
        assert h.engine.stats.timeout_releases == 1
        fillers = []
        for _ in range(4095):
            packet = h.admit()
            h.engine.writeback(packet)
            fillers.append(packet)
        current = h.admit()  # psn 4096: low 12 bits == 0
        assert current.meta.psn == 4096
        assert current.meta.psn & 0xFFF == stale.meta.psn & 0xFFF
        # The stale packet returns now: legal check passes (aliasing),
        # but its full PSN mismatches the bitmap at drain time.
        h.engine.writeback(stale)
        h.engine.writeback(current)
        assert h.engine.stats.stale_writebacks >= 1
        # Both eventually left: the stale one best-effort, current in order.
        assert stale.uid in h.uids()
        assert h.sent[-1] == (current.uid, TxOutcome.IN_ORDER)

    def test_empty_queue_rejects_any_writeback(self):
        h = Harness()
        packet = Packet(FlowKey(1, 2, 3, 4, 17))
        packet.meta = PlbMeta(psn=0, ordq=0, timestamp_ns=0)
        h.engine.writeback(packet)
        assert h.outcomes() == [TxOutcome.BEST_EFFORT]

    def test_writeback_without_meta_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.engine.writeback(Packet(FlowKey(1, 2, 3, 4, 17)))


class TestStats:
    def test_disorder_rate_counts_best_effort_fraction(self):
        h = Harness(timeout_ns=10 * US)
        late = h.admit()
        h.sim.run_until(20 * US)
        h.engine.writeback(late)  # best effort
        ok = h.admit()
        h.engine.writeback(ok)  # in order
        assert h.engine.stats.transmitted == 2
        assert h.engine.stats.disorder_rate() == pytest.approx(0.5)

    def test_admitted_counter(self):
        h = Harness()
        for _ in range(5):
            h.admit()
        assert h.engine.stats.admitted == 5

    def _late_then_in_order(self):
        h = Harness(timeout_ns=10 * US)
        late = h.admit()
        h.sim.run_until(20 * US)  # the head times out and is released
        h.engine.writeback(late)  # best effort
        h.engine.writeback(h.admit())  # in order
        return h.engine.stats

    def test_checkpoint_bytes(self):
        """Every counter, in slot order: migration snapshots embed this."""
        assert json.dumps(self._late_then_in_order().checkpoint()) == (
            '{"admitted": 2, "in_order": 1, "best_effort": 1, '
            '"timeout_releases": 1, "drop_flag_releases": 0, '
            '"stale_writebacks": 0, "fifo_full": 0, "hol_events": 1, '
            '"resets": 0, "reset_inflight_drops": 0, "stale_epoch_writebacks": 0}'
        )

    def test_restore_round_trips_the_checkpoint(self):
        stats = self._late_then_in_order()
        restored = ReorderStats()
        restored.restore(stats.checkpoint())
        assert restored.checkpoint() == stats.checkpoint()
        assert restored.disorder_rate() == stats.disorder_rate() == pytest.approx(0.5)
