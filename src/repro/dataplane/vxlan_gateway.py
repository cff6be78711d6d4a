"""Byte-level VXLAN gateway forwarding.

Implements the forwarding transformations of the Tab. 2 services on real
frames:

* **east-west (VPC-VPC)**: decap the outer VXLAN, look the inner
  destination up in the tenant's VM-NC mapping, re-encapsulate toward
  the destination NC, decrement the inner TTL.
* **north-south (VPC-Internet / VPC-IDC)**: no VM-NC entry; the inner
  destination routes through the VXLAN LPM table to a next-hop tunnel
  endpoint (or, for internet egress, the frame is decapsulated and
  handed to the border with its inner TTL decremented).

All header rewrites go through :mod:`repro.packet.headers`, so outputs
carry correct lengths and IPv4 checksums -- the tests verify the actual
bytes.
"""

import enum

from repro.packet import headers as hdr
from repro.packet.parser import HeaderParseError, PacketParser
from repro.tables.exact import VmNcMappingTable
from repro.tables.lpm import Dir24_8Lpm


class ForwardAction(enum.Enum):
    """What the gateway did with a frame."""

    ENCAP_TO_NC = "encap_to_nc"        # east-west: rewritten outer toward the NC
    ROUTE_TO_NEXTHOP = "route_nexthop"  # north-south via the LPM table
    DECAP_TO_BORDER = "decap_border"    # internet egress: inner frame out
    DROP_UNKNOWN_TENANT = "drop_unknown_tenant"
    DROP_NO_ROUTE = "drop_no_route"
    DROP_TTL_EXPIRED = "drop_ttl"
    DROP_MALFORMED = "drop_malformed"


class _InnerPacket:
    """Parsed inner Ethernet/IPv4 headers plus the trailing bytes."""

    __slots__ = ("ethernet", "ipv4", "rest")

    def __init__(self, ethernet, ipv4, rest):
        self.ethernet = ethernet
        self.ipv4 = ipv4
        self.rest = rest

    def pack(self):
        return self.ethernet.pack() + self.ipv4.pack() + self.rest


def _parse_inner(payload):
    ethernet = hdr.EthernetHeader.unpack(payload)
    if ethernet.ethertype != hdr.ETHERTYPE_IPV4:
        raise HeaderParseError(
            f"inner ethertype 0x{ethernet.ethertype:04x} unsupported"
        )
    ipv4 = hdr.Ipv4Header.unpack(payload[hdr.ETHERNET_LEN:])
    rest = payload[hdr.ETHERNET_LEN + hdr.IPV4_MIN_LEN:]
    return _InnerPacket(ethernet, ipv4, bytes(rest))


class VxlanGateway:
    """One gateway's forwarding state and per-frame processing.

    Parameters:
        local_vtep_ip: this gateway's tunnel source address.
        local_mac / border_mac: L2 addresses used on rewritten frames.
    """

    def __init__(
        self,
        local_vtep_ip=0x0A0000FE,
        local_mac=b"\x02\xAA\x00\x00\x00\x01",
        border_mac=b"\x02\xAA\x00\x00\x00\x02",
    ):
        self.local_vtep_ip = local_vtep_ip
        self.local_mac = local_mac
        self.border_mac = border_mac
        self.vm_nc = VmNcMappingTable(buckets=1 << 12)
        self.routes = Dir24_8Lpm()
        self.known_tenants = set()
        self._parser = PacketParser(split_headers=True)
        self.counters = {action: 0 for action in ForwardAction}

    # -- control plane -------------------------------------------------------

    def add_tenant(self, vni):
        self.known_tenants.add(vni)

    def map_vm(self, vni, vm_ip, nc_ip):
        """Install a VM-NC mapping (east-west reachability)."""
        self.add_tenant(vni)
        return self.vm_nc.map_vm(vni, vm_ip, nc_ip)

    def add_route(self, prefix, length, next_hop_vtep):
        """Install a north-south route; ``next_hop_vtep`` of 0 means
        'decap and hand to the border' (internet egress)."""
        self.routes.insert(prefix, length, next_hop_vtep)

    # -- data plane --------------------------------------------------------------

    def process_frame(self, frame):
        """Forward one wire frame; returns (ForwardAction, bytes or None)."""
        action, out = self._process(frame)
        self.counters[action] += 1
        return action, out

    def _process(self, frame):
        try:
            outer = self._parser.parse(frame)
        except HeaderParseError:
            return ForwardAction.DROP_MALFORMED, None
        if outer.vxlan is None:
            return ForwardAction.DROP_MALFORMED, None
        vni = outer.vxlan.vni
        if vni not in self.known_tenants:
            return ForwardAction.DROP_UNKNOWN_TENANT, None
        try:
            inner = _parse_inner(outer.payload_bytes)
        except (HeaderParseError, ValueError):
            return ForwardAction.DROP_MALFORMED, None
        if inner.ipv4.ttl <= 1:
            return ForwardAction.DROP_TTL_EXPIRED, None

        mapping = self.vm_nc.lookup_vm(vni, inner.ipv4.dst_ip)
        if mapping is not None:
            nc_ip, _ = mapping
            return ForwardAction.ENCAP_TO_NC, self._encap(
                outer, inner, vni, nc_ip
            )

        next_hop = self.routes.lookup(inner.ipv4.dst_ip)
        if next_hop is None:
            return ForwardAction.DROP_NO_ROUTE, None
        if next_hop == 0:
            return ForwardAction.DECAP_TO_BORDER, self._decap(inner)
        return ForwardAction.ROUTE_TO_NEXTHOP, self._encap(
            outer, inner, vni, next_hop
        )

    def _ttl_decremented(self, inner):
        return _InnerPacket(
            inner.ethernet,
            hdr.Ipv4Header(
                inner.ipv4.src_ip,
                inner.ipv4.dst_ip,
                inner.ipv4.proto,
                inner.ipv4.total_length,
                ttl=inner.ipv4.ttl - 1,
                dscp=inner.ipv4.dscp,
                identification=inner.ipv4.identification,
                flags=inner.ipv4.flags,
            ),
            inner.rest,
        )

    def _encap(self, outer, inner, vni, remote_vtep):
        """Re-encapsulate the (TTL-decremented) inner frame toward a VTEP."""
        new_inner = self._ttl_decremented(inner).pack()
        vxlan = hdr.VxlanHeader(vni)
        udp_len = hdr.UDP_LEN + hdr.VXLAN_LEN + len(new_inner)
        udp = hdr.UdpHeader(outer.udp.src_port, hdr.VXLAN_UDP_PORT, udp_len)
        ip = hdr.Ipv4Header(
            self.local_vtep_ip, remote_vtep, hdr.IPPROTO_UDP,
            hdr.IPV4_MIN_LEN + udp_len,
        )
        ethernet = hdr.EthernetHeader(
            self.border_mac, self.local_mac, hdr.ETHERTYPE_IPV4
        )
        return ethernet.pack() + ip.pack() + udp.pack() + vxlan.pack() + new_inner

    def _decap(self, inner):
        """Strip the overlay entirely: the inner frame goes to the border."""
        decremented = self._ttl_decremented(inner)
        ethernet = hdr.EthernetHeader(
            self.border_mac, self.local_mac, hdr.ETHERTYPE_IPV4
        )
        return ethernet.pack() + decremented.ipv4.pack() + decremented.rest
