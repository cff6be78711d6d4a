"""Admission into a reorder engine the way the NIC admits: through
:meth:`~repro.core.plb.dispatch.PlbDispatcher.dispatch`, the engine's one
admission point, which reserves the PSN, queues the reorder info, arms the
head timer and tags the packet's ``meta``.
"""

from repro.core.plb.dispatch import PlbDispatcher
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet


class Admitter:
    """A one-core PLB dispatcher over ``engine`` that admits into a chosen
    order queue (with the first flow that hashes onto it)."""

    def __init__(self, engine):
        self.dispatcher = PlbDispatcher([object()], engine)
        self._flows = {}

    def flow(self, ordq):
        flow = self._flows.get(ordq)
        if flow is None:
            port = 0
            while self.dispatcher.ordq_index(FlowKey(1, 2, port, 4, 17)) != ordq:
                port += 1
            flow = self._flows[ordq] = FlowKey(1, 2, port, 4, 17)
        return flow

    def admit(self, ordq=0):
        """A fresh packet dispatched into ``ordq``, ``None`` if its FIFO is full."""
        packet = Packet(self.flow(ordq))
        if self.dispatcher.dispatch(packet) is None:
            return None
        return packet
