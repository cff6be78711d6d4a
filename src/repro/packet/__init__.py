"""Packet model: flows, hashing and the simulation-path packet.

* :class:`~repro.packet.packet.Packet` -- the lightweight object the
  simulation hot path carries (5-tuple + VNI + size + timestamps).
* :class:`~repro.packet.flows.FlowKey` and :func:`flow_for_tenant` -- flow
  identity and deterministic flow minting for workload generators.
* the Toeplitz RSS hash and the CRC32 5-tuple hash the NIC pipeline uses
  (:mod:`repro.packet.hashing`).
"""

from repro.packet.flows import FlowKey, flow_for_tenant
from repro.packet.hashing import crc32_flow_hash, toeplitz_hash, TOEPLITZ_DEFAULT_KEY
from repro.packet.packet import Packet, PacketKind

__all__ = [
    "FlowKey",
    "flow_for_tenant",
    "crc32_flow_hash",
    "toeplitz_hash",
    "TOEPLITZ_DEFAULT_KEY",
    "Packet",
    "PacketKind",
]
