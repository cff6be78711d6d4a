"""PLB dispatch tests: round-robin spray, order-queue selection, tagging."""

import pytest

from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig
from repro.packet.flows import FlowKey, flow_for_tenant
from repro.packet.packet import Packet
from repro.sim import Simulator


class FakeCore:
    def __init__(self, core_id):
        self.core_id = core_id

        class Stats:
            processed = 0

        self.stats = Stats()


def make_dispatcher(cores=4, queues=2, depth=4096):
    sim = Simulator()
    engine = ReorderEngine(
        sim, ReorderQueueConfig(queues, depth), lambda packet, outcome: None
    )
    fake_cores = [FakeCore(index) for index in range(cores)]
    dispatcher = PlbDispatcher(fake_cores, engine)
    return sim, engine, fake_cores, dispatcher


class TestSpray:
    def test_round_robin_across_cores(self):
        _, _, cores, dispatcher = make_dispatcher(cores=3)
        flow = FlowKey(1, 2, 3, 4, 17)
        selected = [dispatcher.dispatch(Packet(flow)).core_id for _ in range(9)]
        assert selected == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_same_flow_hits_every_core(self):
        """The defining difference from RSS."""
        _, _, cores, dispatcher = make_dispatcher(cores=4)
        flow = FlowKey(9, 9, 9, 9, 17)
        selected = {dispatcher.dispatch(Packet(flow)).core_id for _ in range(8)}
        assert selected == {0, 1, 2, 3}

    def test_empty_core_list_rejected(self):
        sim = Simulator()
        engine = ReorderEngine(sim, ReorderQueueConfig(1), lambda p, o: None)
        with pytest.raises(ValueError):
            PlbDispatcher([], engine)


class TestOrderQueueSelection:
    def test_same_flow_same_queue(self):
        _, _, _, dispatcher = make_dispatcher(queues=8)
        flow = FlowKey(1, 2, 3, 4, 17)
        assert len({dispatcher.ordq_index(flow) for _ in range(10)}) == 1

    def test_flows_spread_over_queues(self):
        _, _, _, dispatcher = make_dispatcher(queues=8)
        queues = {
            dispatcher.ordq_index(flow_for_tenant(tenant, index))
            for tenant in range(20)
            for index in range(20)
        }
        assert queues == set(range(8))

    def test_queue_index_within_bounds(self):
        _, engine, _, dispatcher = make_dispatcher(queues=3)
        for tenant in range(100):
            assert 0 <= dispatcher.ordq_index(flow_for_tenant(tenant, 0)) < 3


class TestTagging:
    def test_meta_attached_with_monotonic_psn(self):
        _, _, _, dispatcher = make_dispatcher(queues=1)
        flow = FlowKey(1, 2, 3, 4, 17)
        psns = []
        for _ in range(5):
            packet = Packet(flow)
            dispatcher.dispatch(packet)
            assert packet.meta is not None
            assert packet.meta.ordq == dispatcher.ordq_index(flow)
            psns.append(packet.meta.psn)
        assert psns == [0, 1, 2, 3, 4]

    def test_psn_is_per_queue(self):
        _, _, _, dispatcher = make_dispatcher(queues=8)
        # Find two flows on different queues.
        flow_a = flow_for_tenant(1, 0)
        queue_a = dispatcher.ordq_index(flow_a)
        flow_b = next(
            flow_for_tenant(tenant, 3)
            for tenant in range(2, 50)
            if dispatcher.ordq_index(flow_for_tenant(tenant, 3)) != queue_a
        )
        pkt_a, pkt_b = Packet(flow_a), Packet(flow_b)
        dispatcher.dispatch(pkt_a)
        dispatcher.dispatch(pkt_b)
        assert pkt_a.meta.psn == 0
        assert pkt_b.meta.psn == 0  # independent sequence space

    def test_timestamp_from_clock(self):
        sim, engine, _, dispatcher = make_dispatcher()
        sim.run_until(12345)
        packet = Packet(FlowKey(1, 2, 3, 4, 17))
        dispatcher.dispatch(packet)
        assert packet.meta.timestamp_ns == 12345
        # The reorder info queued for it: (psn, enqueue_ns).
        assert list(engine._queues[packet.meta.ordq].fifo) == [(0, 12345)]

    def test_header_only_flag_propagates(self):
        _, _, _, dispatcher = make_dispatcher()
        packet = Packet(FlowKey(1, 2, 3, 4, 17))
        dispatcher.dispatch(packet, header_only=True)
        assert packet.header_only
        assert packet.meta.header_only


class TestFifoFullDrop:
    def test_drop_when_queue_full(self):
        _, _, _, dispatcher = make_dispatcher(queues=1, depth=2)
        flow = FlowKey(1, 2, 3, 4, 17)
        assert dispatcher.dispatch(Packet(flow)) is not None
        assert dispatcher.dispatch(Packet(flow)) is not None
        overflow = Packet(flow)
        assert dispatcher.dispatch(overflow) is None
        assert overflow.drop_reason == "reorder_fifo_full"
        assert dispatcher.fifo_full_drops == 1
        assert dispatcher.dispatched == 2

    def test_round_robin_not_advanced_on_drop(self):
        _, _, _, dispatcher = make_dispatcher(cores=2, queues=1, depth=1)
        flow = FlowKey(1, 2, 3, 4, 17)
        first = dispatcher.dispatch(Packet(flow))
        assert first.core_id == 0
        assert dispatcher.dispatch(Packet(flow)) is None  # dropped
        # Next successful dispatch continues the rotation from core 1.
        dispatcher.reorder._queues[0].fifo.clear()
        second = dispatcher.dispatch(Packet(flow))
        assert second.core_id == 1
