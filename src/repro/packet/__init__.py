"""Packet model: flows, headers, hashing, parsing.

Two representations coexist:

* :class:`~repro.packet.packet.Packet` -- the lightweight object used on the
  simulation hot path (5-tuple + VNI + size + timestamps).
* byte-level header codecs in :mod:`repro.packet.headers`, exercised by the
  basic pipeline's parser/deparser (:mod:`repro.packet.parser`), examples and
  tests.  These encode/decode real Ethernet/VLAN/IPv4/UDP/VXLAN bytes.
"""

from repro.packet.flows import FlowKey, flow_for_tenant
from repro.packet.hashing import crc32_flow_hash, toeplitz_hash, TOEPLITZ_DEFAULT_KEY
from repro.packet.headers import (
    EthernetHeader,
    Ipv4Header,
    UdpHeader,
    VlanTag,
    VxlanHeader,
)
from repro.packet.packet import Packet, PacketKind
from repro.packet.parser import HeaderParseError, PacketParser, ParsedPacket

__all__ = [
    "FlowKey",
    "flow_for_tenant",
    "crc32_flow_hash",
    "toeplitz_hash",
    "TOEPLITZ_DEFAULT_KEY",
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "VlanTag",
    "VxlanHeader",
    "Packet",
    "PacketKind",
    "HeaderParseError",
    "PacketParser",
    "ParsedPacket",
]
