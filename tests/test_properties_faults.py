"""Property-based tests: random fault plans against the reorder engine.

Hypothesis drives randomized admission/completion schedules interleaved
with FPGA pipeline resets (the watchdog remediation) and checks the
recovery invariants:

1. a stale sequence number -- a packet admitted before a reset whose
   writeback arrives after it -- is never released IN_ORDER and never
   blocks the post-recovery window;
2. within one epoch, in-order releases preserve admission order;
3. no packet is ever transmitted twice, across any number of resets;
4. all FIFOs drain to empty at quiescence;
5. a fresh batch admitted after the final reset always flows cleanly
   in order (stale state cannot poison the new PSN window).

Also pins the seed-reproducibility of random chaos plans.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig, TxOutcome
from repro.faults.plan import FaultKind, FaultPlan
from repro.sim import MS, Simulator, US
from tests.reorder_admission import Admitter


class FaultScenario:
    """Randomized admissions/completions with pipeline resets injected.

    ``plan`` entries are ``(ordq, delay_us, fate)`` admissions at
    ``index * GAP``; ``resets`` are indices (on the same grid, offset by
    1 us so they interleave between an admission and its neighbours) at
    which the whole engine is reset, exactly as the FPGA watchdog does.
    """

    GAP = 2 * US

    def __init__(self, plan, resets, queues=2):
        self.sim = Simulator()
        self.sent = []
        config = ReorderQueueConfig(queues, depth=4096, timeout_ns=100 * US)
        self.engine = ReorderEngine(self.sim, config, self._capture)
        self.admitter = Admitter(self.engine)
        self.packets = []
        self.admitted_index = {}
        self.ordq_used = {}
        self.epoch_at_admit = {}
        for index, (ordq, delay_us, fate) in enumerate(plan):
            ordq %= queues
            self.sim.schedule_at(
                index * self.GAP, self._admit, index, ordq, delay_us, fate
            )
        for reset_index in resets:
            self.sim.schedule_at(reset_index * self.GAP + US, self.engine.reset)
        self.quiesce_at = len(plan) * self.GAP + 500 * US
        self.sim.run_until(self.quiesce_at)

    def _admit(self, index, ordq, delay_us, fate):
        packet = self.admitter.admit(ordq)
        if packet is None:
            return
        self.admitted_index[packet.uid] = index
        self.ordq_used[packet.uid] = ordq
        self.epoch_at_admit[packet.uid] = self.engine.epoch
        self.packets.append(packet)
        if fate == "silent":
            return  # lost to the reset or the timeout
        if fate == "drop":
            self.sim.schedule(delay_us * US, self.engine.notify_drop, packet)
        else:
            self.sim.schedule(delay_us * US, self.engine.writeback, packet)

    def _capture(self, packet, outcome):
        self.sent.append((packet, outcome, self.engine.epoch))


plans = st.lists(
    st.tuples(
        st.integers(0, 1),                      # order queue
        st.integers(0, 150),                    # completion delay (us)
        st.sampled_from(["ok", "ok", "ok", "drop", "silent"]),
    ),
    min_size=1,
    max_size=60,
)
resets = st.lists(st.integers(0, 60), min_size=0, max_size=3)


class TestResetInvariants:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans, reset_at=resets)
    def test_stale_epochs_never_released_in_order(self, plan, reset_at):
        scenario = FaultScenario(plan, reset_at)
        for packet, outcome, epoch_at_tx in scenario.sent:
            if scenario.epoch_at_admit[packet.uid] != epoch_at_tx:
                assert outcome is not TxOutcome.IN_ORDER

    @settings(max_examples=60, deadline=None)
    @given(plan=plans, reset_at=resets)
    def test_in_order_preserves_admission_order_within_epoch(self, plan, reset_at):
        scenario = FaultScenario(plan, reset_at)
        per_group = {}
        for packet, outcome, _ in scenario.sent:
            if outcome is TxOutcome.IN_ORDER:
                key = (
                    scenario.ordq_used[packet.uid],
                    scenario.epoch_at_admit[packet.uid],
                )
                per_group.setdefault(key, []).append(
                    scenario.admitted_index[packet.uid]
                )
        for indices in per_group.values():
            assert indices == sorted(indices)

    @settings(max_examples=60, deadline=None)
    @given(plan=plans, reset_at=resets)
    def test_no_packet_transmitted_twice_across_resets(self, plan, reset_at):
        scenario = FaultScenario(plan, reset_at)
        uids = [packet.uid for packet, _, _ in scenario.sent]
        assert len(uids) == len(set(uids))

    @settings(max_examples=40, deadline=None)
    @given(plan=plans, reset_at=resets)
    def test_fifos_fully_drained_at_quiescence(self, plan, reset_at):
        scenario = FaultScenario(plan, reset_at)
        for ordq in range(scenario.engine.queue_count):
            assert scenario.engine.occupancy(ordq) == 0
        stats = scenario.engine.stats
        assert stats.resets == len(reset_at)
        assert stats.stale_epoch_writebacks <= len(scenario.packets)

    @settings(max_examples=40, deadline=None)
    @given(plan=plans, reset_at=st.lists(st.integers(0, 60), min_size=1, max_size=3))
    def test_post_recovery_batch_flows_clean(self, plan, reset_at):
        """Fresh flows after the last reset are never blocked or misordered."""
        scenario = FaultScenario(plan, reset_at)
        engine, sim = scenario.engine, scenario.sim
        before = len(scenario.sent)
        fresh = []

        def admit_fresh(ordq):
            packet = scenario.admitter.admit(ordq)
            assert packet is not None  # the reset left no FIFO debris
            fresh.append(packet.uid)
            sim.schedule(10 * US, engine.writeback, packet)

        base = sim.now
        for step in range(20):
            sim.schedule_at(base + step * 2 * US, admit_fresh, step % 2)
        sim.run_until(base + 1 * MS)

        outcomes = {
            packet.uid: outcome
            for packet, outcome, _ in scenario.sent[before:]
            if packet.uid in set(fresh)
        }
        assert sorted(outcomes) == sorted(fresh)  # every fresh packet left
        assert all(o is TxOutcome.IN_ORDER for o in outcomes.values())


class TestChaosPlanReproducibility:
    def test_same_seed_same_plan(self):
        first = FaultPlan.chaos(random.Random(99), duration_ns=1_000 * MS, count=6)
        second = FaultPlan.chaos(random.Random(99), duration_ns=1_000 * MS, count=6)
        assert [
            (f.kind, f.at_ns, f.duration_ns, f.target) for f in first
        ] == [(f.kind, f.at_ns, f.duration_ns, f.target) for f in second]

    def test_plan_is_sorted_and_gapped(self):
        plan = FaultPlan.chaos(
            random.Random(3), duration_ns=2_000 * MS, count=5, min_gap_ns=50 * MS
        )
        times = [fault.at_ns for fault in plan]
        assert times == sorted(times)
        assert all(b - a >= 50 * MS for a, b in zip(times, times[1:]))

    def test_limiter_faults_are_instantaneous(self):
        plan = FaultPlan.chaos(
            random.Random(17),
            duration_ns=3_000 * MS,
            kinds=[FaultKind.LIMITER_SRAM],
            count=4,
        )
        assert all(fault.duration_ns == 0 for fault in plan)

    def test_core_stall_targets_bounded(self):
        plan = FaultPlan.chaos(
            random.Random(4),
            duration_ns=3_000 * MS,
            kinds=[FaultKind.CORE_STALL],
            count=8,
            core_count=4,
        )
        assert all(0 <= fault.target < 4 for fault in plan)
