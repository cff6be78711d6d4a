"""Packet hash functions used by the NIC pipeline.

* :func:`toeplitz_hash` -- the Microsoft RSS Toeplitz hash, used by the RSS
  dispatcher exactly as a hardware NIC would (verified against published
  test vectors in the test suite).
* :func:`crc32_flow_hash` -- the cheap 5-tuple hash used by ``get_ordq_idx``
  to pick a PLB order-preserving queue and by the two-stage rate limiter's
  meter table.
"""

import struct
import zlib

# Default 40-byte RSS secret key from the Microsoft RSS specification;
# virtually every NIC datasheet ships this as the verification key.
TOEPLITZ_DEFAULT_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


def toeplitz_hash(data, key=TOEPLITZ_DEFAULT_KEY):
    """Compute the 32-bit Toeplitz hash of ``data`` under ``key``.

    ``data`` is the RSS input tuple serialization (e.g. src_ip . dst_ip .
    src_port . dst_port for TCP/IPv4).  The key must be at least
    ``len(data) + 4`` bytes.
    """
    if len(key) < len(data) + 4:
        raise ValueError(
            f"key too short: need {len(data) + 4} bytes, have {len(key)}"
        )
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    # Sliding 32-bit window over the key, advanced one bit per data bit.
    for byte_index, byte in enumerate(data):
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = key_bits - 32 - (byte_index * 8 + bit)
                result ^= (key_int >> shift) & 0xFFFFFFFF
    return result


def rss_input_v4(flow):
    """Serialize an IPv4 flow key into the RSS hash input bytes:
    src_ip . dst_ip . src_port . dst_port, the key's bytes above proto."""
    return (flow >> 8).to_bytes(12, "big")


def toeplitz_flow_hash(flow, key=TOEPLITZ_DEFAULT_KEY):
    """Toeplitz hash of an IPv4 :class:`~repro.packet.flows.FlowKey`."""
    return toeplitz_hash(rss_input_v4(flow), key)


def _mix64(value):
    """SplitMix64 finalizer: non-linear avalanche over a 64-bit state.

    CRC32 is linear over GF(2): two CRCs of the same message with
    different appended seeds differ by a *constant* XOR, so seeding via
    the message alone does NOT give independent hash functions (with
    power-of-two table sizes, one bucket index fully determines the
    other -- which deadlocks cuckoo insertion).  Hardware solves this
    with distinct polynomials per hash; we get the same effect by
    passing the CRC through a multiplicative mixer keyed by the seed.
    """
    value &= 0xFFFFFFFFFFFFFFFF
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 31
    return value & 0xFFFFFFFF


def crc32_flow_hash(flow, seed=0):
    """Seeded 5-tuple hash (the FPGA's cheap hash primitive).

    ``seed`` selects effectively independent hash functions; the rate
    limiter uses a different seed from the order-queue selector so their
    collisions are uncorrelated (see :func:`_mix64` for why plain
    seeded CRC32 would not achieve that).
    """
    # The packed key's 13 big-endian bytes: src_ip . dst_ip . src_port .
    # dst_port . proto, as ``struct.pack(">IIHHB", *flow)`` lays them out.
    data = flow.to_bytes(13, "big")
    return _mix64(zlib.crc32(data) ^ ((seed & 0xFFFFFFFF) << 32 | (seed & 0xFFFFFFFF)))


def crc32_vni_hash(vni, seed=0):
    """Seeded hash of a tenant VNI, used by the meter-table stage."""
    return _mix64(
        zlib.crc32(struct.pack(">I", vni))
        ^ ((seed & 0xFFFFFFFF) << 32 | (seed & 0xFFFFFFFF))
    )
