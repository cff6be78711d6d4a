"""Toeplitz and CRC hash tests, including published RSS test vectors."""

import struct
import zlib
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings

from repro.packet.flows import FlowKey
from repro.packet.hashing import (
    TOEPLITZ_DEFAULT_KEY,
    _mix64,
    crc32_flow_hash,
    crc32_vni_hash,
    rss_input_v4,
    toeplitz_flow_hash,
    toeplitz_hash,
)
from tests.test_packet_flows import FIELDS


class TestToeplitzVectors:
    """Microsoft RSS verification suite vectors (IPv4 with TCP ports)."""

    VECTORS = [
        # (dst ip, dst port, src ip, src port) -> expected hash
        (("161.142.100.80", 1766, "66.9.149.187", 2794), 0x51CCC178),
        (("65.69.140.83", 4739, "199.92.111.2", 14230), 0xC626B0EA),
        (("12.22.207.184", 38024, "24.19.198.95", 12898), 0x5C2B394A),
        (("209.142.163.6", 2217, "38.27.205.30", 48228), 0xAFC7327F),
        (("202.188.127.2", 1303, "153.39.163.191", 44251), 0x10E828A2),
    ]

    @pytest.mark.parametrize("addrs,expected", VECTORS)
    def test_published_vectors(self, addrs, expected):
        dst_ip, dst_port, src_ip, src_port = addrs
        flow = FlowKey(int(IPv4Address(src_ip)), int(IPv4Address(dst_ip)), src_port, dst_port, 6)
        assert toeplitz_flow_hash(flow) == expected

    def test_key_too_short_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_hash(b"\x01" * 12, key=b"\x00" * 15)

    def test_empty_input_hashes_to_zero(self):
        assert toeplitz_hash(b"", TOEPLITZ_DEFAULT_KEY) == 0

    def test_rss_input_serialization(self):
        flow = FlowKey(0x01020304, 0x05060708, 0x1122, 0x3344, 6)
        assert rss_input_v4(flow) == bytes.fromhex("0102030405060708" "11223344")


class TestCrcHashes:
    def test_deterministic(self):
        flow = FlowKey(1, 2, 3, 4, 17)
        assert crc32_flow_hash(flow) == crc32_flow_hash(flow)

    def test_seed_gives_independent_functions(self):
        flow = FlowKey(1, 2, 3, 4, 17)
        assert crc32_flow_hash(flow, seed=1) != crc32_flow_hash(flow, seed=2)

    def test_sensitive_to_every_field(self):
        base = (1, 2, 3, 4, 17)
        variants = [
            FlowKey(*base[:position], 6 if position == 4 else 9, *base[position + 1:])
            for position in range(5)
        ]
        hashes = {crc32_flow_hash(flow) for flow in variants}
        hashes.add(crc32_flow_hash(FlowKey(*base)))
        assert len(hashes) == 6

    def test_vni_hash_spread(self):
        indices = {crc32_vni_hash(vni) % 4096 for vni in range(1000)}
        # CRC spreads 1000 tenants over most of a 4K table.
        assert len(indices) > 800


def _reference_crc32(fields, seed):
    """The flow hash over ``struct.pack`` of the 5-tuple, as it was spelled
    while a key was a tuple."""
    data = struct.pack(">IIHHB", *fields)
    return _mix64(zlib.crc32(data) ^ ((seed & 0xFFFFFFFF) << 32 | (seed & 0xFFFFFFFF)))


class TestHashesOfThePackedKey:
    """The packed key hashes the bytes the 5-tuple's ``struct.pack`` gave."""

    @settings(max_examples=100, deadline=None)
    @given(fields=FIELDS)
    def test_crc32_matches_the_struct_reference(self, fields):
        flow = FlowKey(*fields)
        # The ordq seed, the uplink's ECMP seed, the pod pick's seed, and 0.
        for seed in (0, 101, 211, 0x0DD0):
            assert crc32_flow_hash(flow, seed=seed) == _reference_crc32(fields, seed)

    @settings(max_examples=50, deadline=None)
    @given(fields=FIELDS)
    def test_toeplitz_matches_the_struct_reference(self, fields):
        flow = FlowKey(*fields)
        data = struct.pack(">IIHH", *fields[:4])
        assert rss_input_v4(flow) == data
        assert toeplitz_flow_hash(flow) == toeplitz_hash(data)


class TestFlowKey:
    def test_str_dotted_quad(self):
        flow = FlowKey(0x0A010203, 0x04050607, 80, 443, 6)
        assert "10.1.2.3:80" in str(flow)
