"""The simulation packet, flow keys and the deterministic flow minting."""

import copy
import pickle
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet.flows import PROTO_TCP, PROTO_UDP, FlowKey, flow_for_tenant
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
        flow = FlowKey(0x0A000001, 0x0A000002, 5, 6, PROTO_TCP)
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
    def test_ip_text(self, text, value):
        flow = FlowKey(value, value, 1, 2, PROTO_UDP)
        assert str(flow) == f"{text}:1->{text}:2/{PROTO_UDP}"

    @settings(max_examples=200, deadline=None)
    @given(src=st.integers(0, 0xFFFFFFFF), dst=st.integers(0, 0xFFFFFFFF))
    def test_ip_text_is_the_dotted_quad(self, src, dst):
        flow = FlowKey(src, dst, 1, 2, PROTO_TCP)
        assert str(flow) == f"{IPv4Address(src)}:1->{IPv4Address(dst)}:2/{PROTO_TCP}"

    def test_is_hashable_and_equal_by_fields(self):
        flow = FlowKey(1, 2, 3, 4, PROTO_TCP)
        assert tuple(flow) == (1, 2, 3, 4, PROTO_TCP)
        assert {flow: "x"}[FlowKey(1, 2, 3, 4, PROTO_TCP)] == "x"
        assert FlowKey(1, 2, 3, 4, PROTO_UDP) != flow


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
        src_ip, dst_ip, src_port, dst_port, _proto = flow
        assert FlowKey(src_ip, dst_ip, src_port, dst_port, PROTO_UDP) == flow_for_tenant(1, 1)

    @pytest.mark.parametrize("proto", [-1, 256])
    def test_proto_out_of_range_raises(self, proto):
        with pytest.raises(ValueError):
            flow_for_tenant(1, 1, proto=proto)

    @pytest.mark.parametrize("tenant, index", [(0, 0), (7, 123), (65535, 70_000)])
    def test_minted_key_is_the_constructed_key(self, tenant, index):
        flow = flow_for_tenant(tenant, index)
        assert type(flow) is FlowKey
        assert FlowKey(*flow) == flow


#: Each 5-tuple field's width in bits, in field order.
FIELD_BITS = (32, 32, 16, 16, 8)


def _field(bits):
    top = (1 << bits) - 1
    return st.one_of(st.sampled_from([0, top]), st.integers(0, top))


#: 5-tuples with every field in range, its bounds drawn often.
FIELDS = st.tuples(*(_field(bits) for bits in FIELD_BITS))


def _tuple_text(src_ip, dst_ip, src_port, dst_port, proto):
    """``str()`` of the key as the NamedTuple spelled it."""
    def dotted(ip):
        return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    return f"{dotted(src_ip)}:{src_port}->{dotted(dst_ip)}:{dst_port}/{proto}"


class TestPackedRepresentation:
    """A key is one int that behaves as the 5-tuple it packs."""

    @settings(max_examples=200, deadline=None)
    @given(fields=FIELDS)
    def test_fields_round_trip(self, fields):
        flow = FlowKey(*fields)
        assert tuple(flow) == fields
        assert (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port, flow.proto) == fields
        assert FlowKey(*flow) == flow

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(FIELDS, max_size=40))
    def test_sorted_order_is_the_tuples_order(self, rows):
        assert [tuple(flow) for flow in sorted(FlowKey(*row) for row in rows)] == sorted(rows)

    @settings(max_examples=100, deadline=None)
    @given(fields=FIELDS)
    def test_str_is_the_tuples_text(self, fields):
        assert str(FlowKey(*fields)) == _tuple_text(*fields)
        assert f"{FlowKey(*fields)}" == _tuple_text(*fields)

    @settings(max_examples=100, deadline=None)
    @given(fields=FIELDS, position=st.integers(0, 4), above=st.booleans(),
           distance=st.one_of(st.just(1), st.integers(1, 1 << 40)))
    def test_a_field_out_of_range_raises(self, fields, position, above, distance):
        top = (1 << FIELD_BITS[position]) - 1
        bad = list(fields)
        bad[position] = top + distance if above else -distance
        with pytest.raises(ValueError):
            FlowKey(*bad)

    @pytest.mark.parametrize("fields", [
        (0, 0, 0, 0, 0),
        (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF, 0xFF),
        *[tuple((1 << bits) - 1 if index == position else 0
                for index, bits in enumerate(FIELD_BITS))
          for position in range(5)],
    ])
    @pytest.mark.parametrize("clone", [
        lambda flow: pickle.loads(pickle.dumps(flow)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_pickles_and_copies_to_an_equal_key(self, fields, clone):
        flow = FlowKey(*fields)
        cloned = clone(flow)
        assert type(cloned) is FlowKey
        assert cloned == flow and tuple(cloned) == fields
        assert hash(cloned) == hash(flow)


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
