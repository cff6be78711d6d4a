"""GW pod control plane: BGP + BFD over the pod's priority path.

Each GW pod's ctrl cores run BGP (VIP advertisement) and BFD (fast link
failure detection) toward the uplink switch -- in Albatross those
packets traverse the NIC's dedicated priority queues, which is why a
saturated data plane cannot flap them (§4.3).

:class:`PodControlPlane` binds a :class:`~repro.bgp.speaker.BgpSpeaker`
and a :class:`~repro.bgp.bfd.BfdSession` to a
:class:`~repro.core.gateway.GwPodRuntime`: every outbound BGP message and
BFD probe rides a ``PacketKind.PROTOCOL`` packet, injected at the pod's
NIC ingress and delivered through the priority queue to the ctrl-core
handler, and only then goes on the wire -- so control traffic genuinely
competes (or rather, doesn't) with the data plane.
"""

import zlib

from repro.bgp.bfd import BfdSession
from repro.bgp.fsm import BgpSession
from repro.bgp.speaker import BgpSpeaker
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet, PacketKind
from repro.sim.units import MS

BGP_PORT = 179
BFD_PORT = 3784
# Every PROTOCOL packet is 66 B whatever message it carries: 64 B of
# headers plus the 2 B its (kind, payload) pair has always been priced at,
# never the size of the message itself.  Keeping 66 keeps rx_priority and
# every byte count and pinned report unchanged.
PROTOCOL_PACKET_BYTES = 66


class PodControlPlane:
    """The control side of one GW pod.

    Parameters:
        pod: the :class:`~repro.core.gateway.GwPodRuntime`.
        name: BGP identity (defaults to the pod's name).
        asn / bgp_id / router_ip: speaker parameters.
        peer_link_latency_ns: wire latency toward the switch.

    Use :meth:`connect_switch` to peer with an
    :class:`~repro.bgp.switch.UplinkSwitch` (or a proxy); the pod side of
    the session rides the pod's priority path end to end.
    """

    def __init__(self, pod, asn=65001, bgp_id=None, router_ip=None, name=None):
        self.pod = pod
        self.sim = pod.sim
        self.name = name or pod.spec.name
        if bgp_id is None:
            # zlib.crc32 is stable across processes (unlike hash()).
            bgp_id = 0x0A000000 + zlib.crc32(self.name.encode()) % 65536
        self.speaker = BgpSpeaker(
            self.sim,
            self.name,
            asn,
            bgp_id,
            router_ip=router_ip if router_ip is not None else 0x0A000001,
        )
        self.bfd = None
        self._handlers = {}  # dst_port -> callable(message)
        pod.nic.priority.deliver_fn = self._on_priority_packet
        self._messages = {}  # packet uid -> (dst_port, message)

    # -- plumbing ----------------------------------------------------------

    def _inject(self, dst_port, message):
        """Carry a protocol message in a PROTOCOL packet through the pod NIC."""
        packet = Packet(
            FlowKey(self.speaker.router_ip, 0x0A00FF01, dst_port, dst_port, 6),
            size=PROTOCOL_PACKET_BYTES,
            kind=PacketKind.PROTOCOL,
        )
        self._messages[packet.uid] = (dst_port, message)
        self.pod.ingress(packet)

    def _on_priority_packet(self, packet):
        entry = self._messages.pop(packet.uid, None)
        if entry is None:
            return  # externally injected protocol packet; nothing to deliver
        dst_port, message = entry
        handler = self._handlers.get(dst_port)
        if handler is not None:
            handler(message)

    # -- BGP -----------------------------------------------------------------

    def connect_switch(self, switch, hold_time_s=9, link_latency_ns=1 * MS):
        """Establish eBGP with ``switch``; returns this side's session.

        Outbound messages traverse the pod's priority path, then the wire;
        inbound messages arrive directly at the speaker (the switch's own
        queueing is out of scope).
        """
        sessions = {}

        def pod_send(message):
            # Ride the priority path; on ctrl-core delivery, go to wire.
            self._inject(BGP_PORT, message)

        def wire_to_switch(message):
            self.sim.schedule(link_latency_ns, sessions["switch"].receive, message)

        self._handlers[BGP_PORT] = wire_to_switch

        def switch_send(message):
            self.sim.schedule(link_latency_ns, sessions["pod"].receive, message)

        pod_session = BgpSession(
            self.sim, self.speaker, switch.name, pod_send, hold_time_s=hold_time_s
        )
        switch_session = BgpSession(
            self.sim, switch, self.name, switch_send, hold_time_s=hold_time_s
        )
        sessions["pod"] = pod_session
        sessions["switch"] = switch_session
        self.speaker.register_session(pod_session)
        switch.register_session(switch_session)
        pod_session.start()
        return pod_session

    def advertise_vip(self, prefix, length=32):
        self.speaker.advertise(prefix, length)

    def withdraw_vip(self, prefix, length=32):
        self.speaker.withdraw(prefix, length)

    # -- BFD -----------------------------------------------------------------

    def start_bfd(self, remote_receive_fn, interval_ns=50 * MS, on_down=None,
                  link_latency_ns=1 * MS):
        """Start a BFD session whose probes ride the priority path.

        ``remote_receive_fn(packet)`` delivers a probe to the far end.
        Returns the local :class:`~repro.bgp.bfd.BfdSession`.
        """

        def send(packet):
            self._inject(BFD_PORT, packet)

        def wire(packet):
            self.sim.schedule(link_latency_ns, remote_receive_fn, packet)

        self._handlers[BFD_PORT] = wire
        self.bfd = BfdSession(
            self.sim, f"{self.name}-bfd", send, interval_ns=interval_ns,
            on_down=on_down, discriminator=1,
        )
        return self.bfd

