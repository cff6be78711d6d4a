"""The simulation-path packet object.

Deliberately small: the dispatch/reorder/ratelimit models touch millions of
these per run, so a packet carries only what a forwarding decision reads,
never header bytes.
"""

import enum
import itertools


class PacketKind(enum.Enum):
    """Classification produced by ``pkt_dir`` (see §3.2 of the paper).

    * ``DATA`` -- ordinary tenant traffic, eligible for PLB or RSS.
    * ``PROTOCOL`` -- BGP/BFD and other control packets; routed through the
      dedicated priority queues so data-plane saturation cannot drop them.
    """

    DATA = "data"
    PROTOCOL = "protocol"


_packet_ids = itertools.count()


class Packet:
    """A packet in flight through the simulated gateway.

    Attributes:
        flow: the transport :class:`~repro.packet.flows.FlowKey`.
        vni: VXLAN network identifier == tenant identifier.
        size: wire size in bytes (Ethernet frame, no FCS).
        kind: :class:`PacketKind` assigned by ``pkt_dir``.
        arrival_ns: ingress timestamp (set by the NIC on arrival).
        cpu_start_ns / cpu_done_ns: when a data core began / finished
            processing it; None if none did (dropped first, offloaded).
        departure_ns: egress timestamp (set when transmitted), or None.
        meta: the PLB meta header attached by ``plb_dispatch``, or None.
        drop_reason: populated if the packet was dropped anywhere.
        uid: unique id (monotonic), used for order verification in tests.
    """

    __slots__ = (
        "flow",
        "vni",
        "size",
        "kind",
        "arrival_ns",
        "cpu_start_ns",
        "cpu_done_ns",
        "departure_ns",
        "meta",
        "drop_reason",
        "uid",
    )

    def __init__(self, flow, vni=0, size=256, kind=PacketKind.DATA):
        self.flow = flow
        self.vni = vni
        self.size = size
        self.kind = kind
        self.arrival_ns = None
        self.cpu_start_ns = None
        self.cpu_done_ns = None
        self.departure_ns = None
        self.meta = None
        self.drop_reason = None
        self.uid = next(_packet_ids)

    @property
    def latency_ns(self):
        """Ingress-to-egress latency, or None if not yet transmitted."""
        if self.arrival_ns is None or self.departure_ns is None:
            return None
        return self.departure_ns - self.arrival_ns

    def __repr__(self):
        return (
            f"<Packet uid={self.uid} vni={self.vni} {self.flow} "
            f"{self.size}B {self.kind.value}>"
        )
