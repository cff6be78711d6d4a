"""The protocol priority path: a queue served by the ctrl cores (§4.3)."""

import pytest

from repro.core.priority import PriorityQueueManager
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet, PacketKind
from repro.sim import US, Simulator


def protocol_packet(port=179):
    return Packet(FlowKey(1, 2, port, port, 6), size=80, kind=PacketKind.PROTOCOL)


def manager(sim, **kwargs):
    path = PriorityQueueManager(sim, **kwargs)
    delivered = []
    path.deliver_fn = lambda packet: delivered.append((sim.now, packet.uid))
    return path, delivered


class TestPriorityPath:
    def test_idle_until_fed(self):
        path = PriorityQueueManager(Simulator())
        assert path.idle
        assert (path.delivered, path.dropped) == (0, 0)

    def test_default_consumer_discards(self):
        sim = Simulator()
        path = PriorityQueueManager(sim)
        assert path.enqueue(protocol_packet())
        sim.run()
        assert path.delivered == 1 and path.idle

    def test_packets_served_back_to_back_in_order(self):
        sim = Simulator()
        path, delivered = manager(sim, service_ns=3 * US)
        packets = [protocol_packet(port) for port in (179, 3784, 179)]
        for packet in packets:
            assert path.enqueue(packet)
        assert not path.idle
        sim.run()
        assert delivered == [
            (3 * US * (index + 1), packet.uid) for index, packet in enumerate(packets)
        ]
        assert path.idle

    def test_service_restarts_after_going_idle(self):
        sim = Simulator()
        path, delivered = manager(sim, service_ns=2 * US)
        path.enqueue(protocol_packet())
        sim.run_until(10 * US)
        path.enqueue(protocol_packet())
        sim.run()
        assert [time for time, _ in delivered] == [2 * US, 12 * US]

    @pytest.mark.parametrize("capacity", [1, 2, 5])
    def test_overflow_drops_beyond_capacity(self, capacity):
        sim = Simulator()
        path, delivered = manager(sim, capacity=capacity)
        # The first packet goes straight into service, so the ring holds
        # ``capacity`` more before it drops.
        accepted = [path.enqueue(protocol_packet()) for _ in range(capacity + 3)]
        assert accepted == [True] * (capacity + 1) + [False] * 2
        assert path.dropped == 2
        sim.run()
        assert len(delivered) == capacity + 1

    def test_checkpoint_restore(self):
        sim = Simulator()
        path, _ = manager(sim, capacity=1)
        for _ in range(4):
            path.enqueue(protocol_packet())
        sim.run()
        snapshot = path.checkpoint()
        assert snapshot["delivered"] == 2
        assert snapshot["queue"]["dropped"] == 2
        other = PriorityQueueManager(Simulator(), capacity=1)
        other.restore(snapshot)
        assert other.checkpoint() == snapshot
        assert other.dropped == 2 and other.idle
