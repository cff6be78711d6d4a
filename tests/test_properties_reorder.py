"""Property-based tests of the reorder engine's system invariants.

Hypothesis drives randomized CPU completion schedules (random service
times, drops, duplicates) against the engine and checks the invariants
the hardware must uphold:

1. per-queue in-order transmissions are a prefix-preserving subsequence
   of admissions (never reordered relative to each other);
2. every admitted packet is accounted for exactly once (transmitted,
   released by drop flag, or timed out);
3. the engine never transmits a packet twice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meta import PlbMeta
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig, TxOutcome
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet
from repro.sim import Simulator, US


class Scenario:
    """One randomized run: admissions at t=i*GAP, completions at random
    later times; some packets silently dropped, some explicitly dropped."""

    GAP = 2 * US

    def __init__(self, plan, queues=2):
        self.sim = Simulator()
        self.sent = []
        config = ReorderQueueConfig(queues, depth=4096, timeout_ns=100 * US)
        self.engine = ReorderEngine(self.sim, config, self._capture)
        self.packets = []
        # Packet uses __slots__; side metadata lives here, keyed by uid.
        self.admitted_index = {}
        self.ordq_used = {}
        for index, (ordq, delay_us, fate) in enumerate(plan):
            ordq %= queues
            self.sim.schedule_at(
                index * self.GAP, self._admit, index, ordq, delay_us, fate
            )
        self.sim.run_until(len(plan) * self.GAP + 500 * US)

    def _admit(self, index, ordq, delay_us, fate):
        packet = Packet(FlowKey(1, 2, 3, 4, 17))
        psn = self.engine.admit(ordq, self.sim.now)
        if psn is None:
            return
        packet.meta = PlbMeta(psn=psn, ordq=ordq, timestamp_ns=self.sim.now)
        self.admitted_index[packet.uid] = index
        self.ordq_used[packet.uid] = ordq
        self.packets.append(packet)
        if fate == "silent":
            return  # never comes back: must be timed out
        if fate == "drop":
            self.sim.schedule(delay_us * US, self.engine.notify_drop, packet)
        else:
            self.sim.schedule(delay_us * US, self.engine.writeback, packet)

    def _capture(self, packet, outcome):
        self.sent.append((packet, outcome))


plans = st.lists(
    st.tuples(
        st.integers(0, 1),                      # order queue
        st.integers(0, 150),                    # completion delay (us)
        st.sampled_from(["ok", "ok", "ok", "drop", "silent"]),
    ),
    min_size=1,
    max_size=60,
)


class TestReorderInvariants:
    @settings(max_examples=80, deadline=None)
    @given(plan=plans)
    def test_in_order_transmissions_preserve_admission_order(self, plan):
        scenario = Scenario(plan)
        per_queue = {}
        for packet, outcome in scenario.sent:
            if outcome is TxOutcome.IN_ORDER:
                per_queue.setdefault(scenario.ordq_used[packet.uid], []).append(
                    scenario.admitted_index[packet.uid]
                )
        for indices in per_queue.values():
            assert indices == sorted(indices)

    @settings(max_examples=80, deadline=None)
    @given(plan=plans)
    def test_every_packet_accounted_exactly_once(self, plan):
        scenario = Scenario(plan)
        stats = scenario.engine.stats
        transmitted = stats.in_order + stats.best_effort
        accounted = transmitted + stats.drop_flag_releases
        silent = sum(
            1
            for packet in scenario.packets
            if not any(sent is packet for sent, _ in scenario.sent)
            and (packet.meta is None or not packet.meta.drop)
        )
        # Every admitted packet either left the engine or went silent
        # (whose FIFO slots were reclaimed by the timeout).
        assert accounted + silent == len(scenario.packets)
        assert stats.timeout_releases >= silent

    @settings(max_examples=80, deadline=None)
    @given(plan=plans)
    def test_no_packet_transmitted_twice(self, plan):
        scenario = Scenario(plan)
        uids = [packet.uid for packet, outcome in scenario.sent]
        assert len(uids) == len(set(uids))

    @settings(max_examples=40, deadline=None)
    @given(plan=plans)
    def test_fifos_fully_drained_at_quiescence(self, plan):
        scenario = Scenario(plan)
        for ordq in range(scenario.engine.queue_count):
            assert scenario.engine.occupancy(ordq) == 0

    @settings(max_examples=40, deadline=None)
    @given(plan=plans)
    def test_fast_completions_always_in_order(self, plan):
        """If every completion beats the timeout, nothing is disordered."""
        fast_plan = [(ordq, min(delay, 40), "ok") for ordq, delay, _ in plan]
        scenario = Scenario(fast_plan)
        assert scenario.engine.stats.best_effort == 0
        assert scenario.engine.stats.timeout_releases == 0
        assert scenario.engine.stats.in_order == len(scenario.packets)
