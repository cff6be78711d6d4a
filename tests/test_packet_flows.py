"""The simulation packet, flow keys and the deterministic flow minting."""

import pytest

from repro.packet.flows import PROTO_TCP, PROTO_UDP, FlowKey, flow_for_tenant, ip_from_str
from repro.packet.hashing import toeplitz_hash
from repro.packet.packet import Packet, PacketKind


class TestPacket:
    def test_defaults(self):
        packet = Packet(FlowKey(1, 2, 3, 4, PROTO_UDP))
        assert (packet.vni, packet.size, packet.kind) == (0, 256, PacketKind.DATA)
        assert packet.arrival_ns is None and packet.departure_ns is None
        assert packet.meta is None and packet.drop_reason is None

    def test_uids_are_unique_and_increasing(self):
        flow = FlowKey(1, 2, 3, 4, PROTO_UDP)
        uids = [Packet(flow).uid for _ in range(5)]
        assert uids == sorted(uids)
        assert len(set(uids)) == 5

    @pytest.mark.parametrize(
        "arrival,departure,latency",
        [(None, None, None), (100, None, None), (None, 900, None), (100, 900, 800),
         (5, 5, 0)],
    )
    def test_latency_needs_both_stamps(self, arrival, departure, latency):
        packet = Packet(FlowKey(1, 2, 3, 4, PROTO_UDP))
        packet.arrival_ns = arrival
        packet.departure_ns = departure
        assert packet.latency_ns == latency

    def test_no_per_instance_dict(self):
        packet = Packet(FlowKey(1, 2, 3, 4, PROTO_UDP))
        with pytest.raises(AttributeError):
            packet.payload = b"header bytes"

    @pytest.mark.parametrize("kind", list(PacketKind), ids=lambda kind: kind.value)
    def test_repr_names_kind_size_and_flow(self, kind):
        flow = FlowKey(ip_from_str("10.0.0.1"), ip_from_str("10.0.0.2"), 5, 6, PROTO_TCP)
        packet = Packet(flow, vni=42, size=64, kind=kind)
        assert repr(packet) == (
            f"<Packet uid={packet.uid} vni=42 10.0.0.1:5->10.0.0.2:6/6 64B {kind.value}>"
        )


class TestFlowKeyText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.0.0.0", 0),
            ("0.0.0.1", 1),
            ("1.0.0.0", 1 << 24),
            ("10.1.2.3", 0x0A010203),
            ("192.168.255.1", 0xC0A8FF01),
            ("255.255.255.255", 0xFFFFFFFF),
        ],
    )
    def test_ip_round_trip(self, text, value):
        assert ip_from_str(text) == value
        flow = FlowKey(value, value, 1, 2, PROTO_UDP)
        assert str(flow) == f"{text}:1->{text}:2/{PROTO_UDP}"

    @pytest.mark.parametrize(
        "text", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.-1", "a.b.c.d", "1..2.3"]
    )
    def test_ip_from_str_rejects(self, text):
        with pytest.raises(ValueError):
            ip_from_str(text)

    def test_is_a_hashable_tuple(self):
        flow = FlowKey(1, 2, 3, 4, PROTO_TCP)
        assert flow == (1, 2, 3, 4, PROTO_TCP)
        assert {flow: "x"}[FlowKey(1, 2, 3, 4, PROTO_TCP)] == "x"
        assert flow._replace(proto=PROTO_UDP) != flow


class TestFlowForTenant:
    def test_deterministic(self):
        assert flow_for_tenant(7, 123) == flow_for_tenant(7, 123)

    @pytest.mark.parametrize("tenant", [0, 1, 255, 4242, 65535])
    def test_fields_in_range(self, tenant):
        for index in range(0, 5000, 97):
            flow = flow_for_tenant(tenant, index)
            assert 0 <= flow.src_ip <= 0xFFFFFFFF and 0 <= flow.dst_ip <= 0xFFFFFFFF
            assert 1024 <= flow.src_port < 1024 + 64000
            assert 1 <= flow.dst_port <= 65535
            assert flow.proto == PROTO_UDP

    def test_source_in_ten_slash_eight(self):
        assert all(flow_for_tenant(t, i).src_ip >> 24 == 10
                   for t in range(5) for i in range(50))

    def test_flows_of_one_tenant_are_distinct(self):
        flows = {flow_for_tenant(3, index) for index in range(2000)}
        assert len(flows) == 2000

    def test_tenants_do_not_share_flows(self):
        first = {flow_for_tenant(1, index) for index in range(500)}
        second = {flow_for_tenant(2, index) for index in range(500)}
        assert not first & second

    def test_proto_is_passed_through(self):
        flow = flow_for_tenant(1, 1, proto=PROTO_TCP)
        assert flow.proto == PROTO_TCP
        assert flow._replace(proto=PROTO_UDP) == flow_for_tenant(1, 1)


class TestToeplitzLinearity:
    """Toeplitz is linear over GF(2): the property RSS key design relies on."""

    @pytest.mark.parametrize("seed", range(4))
    def test_xor_of_inputs_is_xor_of_hashes(self, seed):
        first = bytes((seed * 37 + index * 11) & 0xFF for index in range(12))
        second = bytes((seed * 53 + index * 7 + 1) & 0xFF for index in range(12))
        mixed = bytes(a ^ b for a, b in zip(first, second))
        assert toeplitz_hash(mixed) == toeplitz_hash(first) ^ toeplitz_hash(second)

    def test_single_bit_selects_a_key_window(self):
        key = bytes(range(1, 41))
        # The top input bit selects the first 32 key bits.
        assert toeplitz_hash(b"\x80", key) == int.from_bytes(key[:4], "big")
