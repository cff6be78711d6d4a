"""Protocol-packet prioritization (§4.3, second GOP technique).

Protocol packets (BGP, BFD) ride dedicated RX/TX priority queues so that
data-plane saturation cannot drop them.  Losing three consecutive BFD
probes tears down a link, so even a few lost protocol packets during an
overload can disconnect every container on the gateway -- the priority
path makes that impossible as long as the ctrl cores are alive.
"""

from repro.cpu.queues import PacketQueue
from repro.sim.units import US


class PriorityQueueManager:
    """Dedicated priority path: queue + ctrl-core service loop.

    Parameters:
        sim: the simulator.
        service_ns: ctrl-core processing time per protocol packet.
        capacity: priority RX ring size (generously provisioned; protocol
            traffic volume is tiny).

    :attr:`deliver_fn` is called as ``deliver_fn(packet)`` when a protocol
    packet has been processed by a ctrl core; a no-op until a consumer
    (the pod's BGP speaker / BFD endpoint) assigns it.
    """

    def __init__(self, sim, service_ns=2 * US, capacity=4096):
        self.sim = sim
        self.deliver_fn = lambda packet: None
        self.service_ns = service_ns
        self.queue = PacketQueue(capacity, name="priority-rx")
        self.delivered = 0
        # Transient service-loop flag; the priority path is idle (not
        # busy, queue empty) whenever a quiescent pod is checkpointed.
        self._busy = False  # lint: disable=SNAP001(transient service flag; priority path is idle at quiescent checkpoints)

    @property
    def dropped(self):
        """Priority-queue overflow drops (should stay zero in any sane run)."""
        return self.queue.dropped

    @property
    def idle(self):
        """True when no protocol packet is queued or being serviced."""
        return not self._busy and len(self.queue) == 0

    def enqueue(self, packet):
        """Admit a protocol packet to the priority path."""
        accepted = self.queue.push(packet)
        if accepted and not self._busy:
            self._start_next()
        return accepted

    def _start_next(self):
        packet = self.queue.pop()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self.sim.post(self.service_ns, self._finish, packet)

    def _finish(self, packet):
        self.delivered += 1
        self.deliver_fn(packet)
        self._start_next()

    def checkpoint(self):
        """Plain-data snapshot; requires the priority path to be idle."""
        return {
            "delivered": self.delivered,
            "queue": self.queue.checkpoint(),
        }

    def restore(self, snapshot):
        self.delivered = snapshot["delivered"]
        self.queue.restore(snapshot["queue"])
