"""The simulation-path packet object.

Deliberately small: the dispatch/reorder/ratelimit models touch millions of
these per run.  Byte-accurate headers live in :mod:`repro.packet.headers`
and are only materialized where realism matters (basic-pipeline parsing).
"""

import enum
import itertools


class PacketKind(enum.Enum):
    """Classification produced by ``pkt_dir`` (see §3.2 of the paper).

    * ``DATA`` -- ordinary tenant traffic, eligible for PLB or RSS.
    * ``PROTOCOL`` -- BGP/BFD and other control packets; routed through the
      dedicated priority queues so data-plane saturation cannot drop them.
    * ``STATEFUL`` -- low-volume packets that must not be sprayed (Zoonet
      probes, health checks, vSwitch cache-learning packets); pinned to one
      core via RSS regardless of the pod's load-balancing mode.
    """

    DATA = "data"
    PROTOCOL = "protocol"
    STATEFUL = "stateful"


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
        header_only: True when delivered in header-payload-split mode.
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
        "header_only",
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
        self.header_only = False
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
