"""Toeplitz and CRC hash tests, including published RSS test vectors."""

import pytest

from repro.packet.flows import FlowKey, ip_from_str
from repro.packet.hashing import (
    TOEPLITZ_DEFAULT_KEY,
    crc32_flow_hash,
    crc32_vni_hash,
    rss_input_v4,
    toeplitz_flow_hash,
    toeplitz_hash,
)


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
        flow = FlowKey(ip_from_str(src_ip), ip_from_str(dst_ip), src_port, dst_port, 6)
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
        base = FlowKey(1, 2, 3, 4, 17)
        variants = [
            base._replace(src_ip=9),
            base._replace(dst_ip=9),
            base._replace(src_port=9),
            base._replace(dst_port=9),
            base._replace(proto=6),
        ]
        hashes = {crc32_flow_hash(flow) for flow in variants}
        hashes.add(crc32_flow_hash(base))
        assert len(hashes) == 6

    def test_vni_hash_spread(self):
        indices = {crc32_vni_hash(vni) % 4096 for vni in range(1000)}
        # CRC spreads 1000 tenants over most of a 4K table.
        assert len(indices) > 800


class TestFlowKey:
    def test_str_dotted_quad(self):
        flow = FlowKey(ip_from_str("10.1.2.3"), ip_from_str("4.5.6.7"), 80, 443, 6)
        assert "10.1.2.3:80" in str(flow)

    def test_ip_from_str_round_trip(self):
        assert ip_from_str("255.255.255.255") == 0xFFFFFFFF
        assert ip_from_str("0.0.0.0") == 0

    def test_ip_from_str_rejects_garbage(self):
        with pytest.raises(ValueError):
            ip_from_str("1.2.3")
        with pytest.raises(ValueError):
            ip_from_str("1.2.3.999")
