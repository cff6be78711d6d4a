"""Finite packet queues: the cores' RX descriptor rings.

The paper's HOL post-mortems (§4.1) blame, among other things, RX/TX queue
congestion and insufficient PCIe descriptors.  A bounded ring gives the
simulation that failure mode: it drops when full.
"""

from collections import deque

from repro.controlplane.snapshot import Stateful


class PacketQueue(Stateful):
    """Bounded FIFO with drop accounting (an RX or TX descriptor ring)."""

    STATE = ("enqueued", "dropped", "high_watermark")
    DERIVED = {"packets": "in-flight packets; checkpoints happen with the queue drained"}

    def __init__(self, capacity=1024, name="queue"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.name = name
        # In-flight packets, oldest first.  Readers may test it for
        # emptiness without a call; only push/pop/drain change the queue
        # (an idle CpuCore also counts a packet it serves straight past
        # the empty ring).
        self.packets = deque()
        self.enqueued = 0
        self.dropped = 0
        self.high_watermark = 0

    def __len__(self):
        return len(self.packets)

    def push(self, packet):
        """Enqueue; returns False (and counts a drop) when full."""
        items = self.packets
        if len(items) >= self.capacity:
            self.dropped += 1
            return False
        items.append(packet)
        self.enqueued += 1
        if len(items) > self.high_watermark:
            self.high_watermark = len(items)
        return True

    def pop(self):
        """Dequeue the oldest packet, or None when empty."""
        if not self.packets:
            return None
        return self.packets.popleft()
