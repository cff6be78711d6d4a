"""BGP message codec tests, including property-based round trips."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import messages as msg


class TestOpen:
    def test_round_trip(self):
        original = msg.BgpOpen(asn=65001, hold_time=90, bgp_id=0x0A000001)
        assert msg.decode_message(original.pack()) == original

    def test_header_layout(self):
        packed = msg.BgpOpen(1, 2, 3).pack()
        assert packed[:16] == b"\xff" * 16
        assert packed[18] == msg.TYPE_OPEN
        assert int.from_bytes(packed[16:18], "big") == len(packed)

    def test_bad_version_rejected(self):
        packed = bytearray(msg.BgpOpen(1, 2, 3).pack())
        packed[19] = 6
        with pytest.raises(msg.BgpDecodeError):
            msg.decode_message(bytes(packed))


class TestUpdate:
    def test_announce_round_trip(self):
        update = msg.BgpUpdate(
            announced=[(0x0A640000, 24), (0xC0A80000, 16)],
            next_hop=0x0A000001,
            as_path=[65001, 65002],
            local_pref=200,
        )
        decoded = msg.decode_message(update.pack())
        assert decoded == update
        assert decoded.as_path == [65001, 65002]
        assert decoded.local_pref == 200

    def test_withdraw_round_trip(self):
        update = msg.BgpUpdate(withdrawn=[(0x0A640000, 24)])
        decoded = msg.decode_message(update.pack())
        assert decoded.withdrawn == [(0x0A640000, 24)]
        assert decoded.announced == []

    def test_mixed_round_trip(self):
        update = msg.BgpUpdate(
            announced=[(0x0A000000, 8)],
            withdrawn=[(0x0B000000, 8)],
            next_hop=1,
        )
        decoded = msg.decode_message(update.pack())
        assert decoded.announced and decoded.withdrawn

    def test_announce_requires_next_hop(self):
        with pytest.raises(ValueError):
            msg.BgpUpdate(announced=[(0, 0)])

    def test_prefix_encoding_is_minimal(self):
        # A /8 prefix encodes in 1 octet, /24 in 3.
        update = msg.BgpUpdate(withdrawn=[(0x0A000000, 8)])
        body = update.pack()[msg.HEADER_LEN:]
        (withdrawn_len,) = __import__("struct").unpack_from(">H", body, 0)
        assert withdrawn_len == 2  # length byte + 1 prefix octet

    def test_host_route(self):
        update = msg.BgpUpdate(announced=[(0x0A0A0A0A, 32)], next_hop=1)
        assert msg.decode_message(update.pack()).announced == [(0x0A0A0A0A, 32)]

    def test_default_route(self):
        update = msg.BgpUpdate(announced=[(0, 0)], next_hop=1)
        assert msg.decode_message(update.pack()).announced == [(0, 0)]

    @settings(max_examples=50, deadline=None)
    @given(
        prefixes=st.lists(
            st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 32)),
            min_size=0,
            max_size=8,
        ),
        next_hop=st.integers(1, 0xFFFFFFFF),
        as_path=st.lists(st.integers(1, 65535), max_size=4),
    )
    def test_property_round_trip(self, prefixes, next_hop, as_path):
        masked = [
            (prefix & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF) if length else 0, length)
            for prefix, length in prefixes
        ]
        update = msg.BgpUpdate(
            announced=masked,
            next_hop=next_hop if masked else None,
            as_path=as_path if masked else [],
        )
        decoded = msg.decode_message(update.pack())
        assert sorted(decoded.announced) == sorted(masked)
        if masked:
            assert decoded.next_hop == next_hop
            assert decoded.as_path == as_path


class TestKeepaliveNotification:
    def test_keepalive_round_trip(self):
        assert msg.decode_message(msg.BgpKeepalive().pack()) == msg.BgpKeepalive()

    def test_keepalive_is_19_bytes(self):
        assert len(msg.BgpKeepalive().pack()) == msg.HEADER_LEN

    def test_notification_round_trip(self):
        notification = msg.BgpNotification(code=6, subcode=2)
        assert msg.decode_message(notification.pack()) == notification


class TestDecodeErrors:
    def test_short_message(self):
        with pytest.raises(msg.BgpDecodeError):
            msg.decode_message(b"\xff" * 10)

    def test_bad_marker(self):
        packed = bytearray(msg.BgpKeepalive().pack())
        packed[0] = 0
        with pytest.raises(msg.BgpDecodeError):
            msg.decode_message(bytes(packed))

    def test_length_mismatch(self):
        packed = msg.BgpKeepalive().pack() + b"extra"
        with pytest.raises(msg.BgpDecodeError):
            msg.decode_message(packed)

    def test_unknown_type(self):
        packed = bytearray(msg.BgpKeepalive().pack())
        packed[18] = 99
        with pytest.raises(msg.BgpDecodeError):
            msg.decode_message(bytes(packed))

    def test_keepalive_with_body(self):
        body = b"\x00"
        raw = msg.MARKER + (msg.HEADER_LEN + 1).to_bytes(2, "big") + bytes([msg.TYPE_KEEPALIVE]) + body
        with pytest.raises(msg.BgpDecodeError):
            msg.decode_message(raw)

    def test_prefix_length_over_32(self):
        update = msg.BgpUpdate(withdrawn=[(0, 0)])
        raw = bytearray(update.pack())
        raw[msg.HEADER_LEN + 2] = 40  # corrupt the prefix length byte
        with pytest.raises(msg.BgpDecodeError):
            msg.decode_message(bytes(raw))

    # (message type, body, the error the decoder must name)
    TRUNCATED = [
        (msg.TYPE_OPEN, b"\x04\x00\x01", "truncated OPEN"),
        (msg.TYPE_OPEN, struct.pack(">BHHIB", 4, 1, 90, 3, 5), "truncated OPEN options"),
        (msg.TYPE_UPDATE, b"\x00\x00", "truncated UPDATE"),
        (msg.TYPE_UPDATE, b"\x00\x05\x00\x00", "truncated withdrawn routes"),
        (msg.TYPE_UPDATE, b"\x00\x00\x00\x09", "truncated path attributes"),
        # A /24 withdrawal carrying one prefix octet instead of three.
        (msg.TYPE_UPDATE, b"\x00\x02\x18\x0a\x00\x00", "truncated NLRI"),
        (msg.TYPE_UPDATE, b"\x00\x00\x00\x02\x40\x01", "truncated attribute header"),
        # NEXT_HOP declares four value bytes and carries one.
        (msg.TYPE_UPDATE, b"\x00\x00\x00\x04\x40\x03\x04\x0a",
         "truncated attribute value"),
        (msg.TYPE_UPDATE, b"\x00\x00\x00\x00\x08\x0a", "announced NLRI without NEXT_HOP"),
        (msg.TYPE_NOTIFICATION, b"\x06", "truncated NOTIFICATION"),
    ]

    @pytest.mark.parametrize(
        "msg_type,body,error", TRUNCATED, ids=[case[2] for case in TRUNCATED]
    )
    def test_malformed_body_rejected(self, msg_type, body, error):
        raw = msg.MARKER + (msg.HEADER_LEN + len(body)).to_bytes(2, "big")
        raw += bytes([msg_type]) + body
        with pytest.raises(msg.BgpDecodeError, match=error):
            msg.decode_message(raw)

    def test_open_options_are_skipped(self):
        # Declared options that are present decode; they carry nothing the
        # gateway negotiates.
        body = struct.pack(">BHHIB", 4, 65001, 90, 7, 2) + b"\x02\x00"
        raw = msg.MARKER + (msg.HEADER_LEN + len(body)).to_bytes(2, "big")
        raw += bytes([msg.TYPE_OPEN]) + body
        assert msg.decode_message(raw) == msg.BgpOpen(65001, 90, 7)


class TestMessageText:
    @pytest.mark.parametrize(
        "message,text",
        [
            (msg.BgpOpen(65001, 90, 0x0A000001),
             "BgpOpen(asn=65001, hold=90, id=0x0a000001)"),
            (msg.BgpUpdate(announced=[(0x0A000000, 8)], withdrawn=[(1, 32), (2, 32)],
                           next_hop=5),
             "BgpUpdate(+1 -2 nh=5)"),
            (msg.BgpKeepalive(), "BgpKeepalive()"),
            (msg.BgpNotification(6, 2), "BgpNotification(code=6, subcode=2)"),
        ],
        ids=["open", "update", "keepalive", "notification"],
    )
    def test_repr(self, message, text):
        assert repr(message) == text

    def test_equality_ignores_announcement_order(self):
        first = msg.BgpUpdate(announced=[(1 << 24, 8), (2 << 24, 8)], next_hop=1)
        second = msg.BgpUpdate(announced=[(2 << 24, 8), (1 << 24, 8)], next_hop=1)
        assert first == second
        assert first != msg.BgpKeepalive()
