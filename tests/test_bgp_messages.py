"""BGP message objects: their fields, and how sessions send and receive them."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import messages as msg
from repro.bgp.fsm import BgpSession, BgpState, establish_pair
from repro.bgp.speaker import BgpSpeaker
from repro.sim import SECOND, Simulator

CONNECT_DELAY_NS = 2_000_000


def only_route(speaker, key):
    """The RIB entry for ``key`` that the speaker's one announcing peer sent."""
    [entry] = speaker.rib[key].values()
    return entry


def speakers(sim, count=2, asn=65001):
    return [
        BgpSpeaker(sim, f"s{index}", asn + index, 0x0A000000 + index)
        for index in range(count)
    ]


def recording_session(sim, speaker, hold_time_s=90):
    """A session whose outbound messages land in the returned list."""
    sent = []
    session = BgpSession(sim, speaker, "peer", sent.append, hold_time_s=hold_time_s)
    speaker.register_session(session)
    return session, sent


def session_in(state):
    """A recording session driven into ``state`` by real transitions.

    Returns (sim, speaker, session, sent) with ``sent`` emptied, so a
    test sees only what its own message makes the session send.
    """
    sim = Simulator()
    speaker = speakers(sim, 1)[0]
    session, sent = recording_session(sim, speaker)
    if state is not BgpState.IDLE:
        session.start()
    if state in (BgpState.OPEN_SENT, BgpState.OPEN_CONFIRM, BgpState.ESTABLISHED):
        sim.run_until(CONNECT_DELAY_NS)
    if state in (BgpState.OPEN_CONFIRM, BgpState.ESTABLISHED):
        session.receive(msg.BgpOpen(65100, 90, 0x0A0000FF))
    if state is BgpState.ESTABLISHED:
        session.receive(msg.BgpKeepalive())
    assert session.state is state
    sent.clear()
    return sim, speaker, session, sent


def established(sim, hold_time_s=90):
    a, b = speakers(sim)
    session_a, session_b, link = establish_pair(sim, a, b, hold_time_s=hold_time_s)
    sim.run_until(1 * SECOND)
    assert session_a.state is session_b.state is BgpState.ESTABLISHED
    return a, b, session_a, session_b


def capture_receive(session):
    """Record every message ``session`` receives, then handle it as usual."""
    received = []
    handle = session.receive

    def receive(message):
        received.append(message)
        handle(message)

    session.receive = receive
    return received


class TestOpen:
    def test_round_trip(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, session_b, _ = establish_pair(sim, a, b, hold_time_s=30)
        received = capture_receive(session_b)
        sim.run_until(1 * SECOND)
        opens = [m for m in received if isinstance(m, msg.BgpOpen)]
        assert opens == [msg.BgpOpen(a.asn, 30, a.bgp_id)]
        assert session_b.hold_time_s == opens[0].hold_time

    def test_fields_are_the_speaker_parameters(self):
        sim = Simulator()
        speaker = BgpSpeaker(sim, "pod", 65042, 0x0A0000AB)
        session, sent = recording_session(sim, speaker, hold_time_s=9)
        session.start()
        sim.run_until(CONNECT_DELAY_NS)
        assert sent == [msg.BgpOpen(asn=65042, hold_time=9, bgp_id=0x0A0000AB)]
        assert session.state is BgpState.OPEN_SENT

    def test_nothing_is_sent_before_the_connect_delay(self):
        sim = Simulator()
        session, sent = recording_session(sim, speakers(sim, 1)[0])
        session.start()
        sim.run_until(CONNECT_DELAY_NS - 1)
        assert sent == []
        assert session.state is BgpState.CONNECT

    def test_peer_hold_time_negotiates_down(self):
        sim, _, session, sent = session_in(BgpState.OPEN_SENT)
        session.receive(msg.BgpOpen(65100, 3, 0x0A0000FF))
        assert session.hold_time_s == 3
        assert sent == [msg.BgpKeepalive()]


class TestUpdate:
    def test_announce_round_trip(self):
        sim = Simulator()
        a, b, session_a, session_b = established(sim)
        update = msg.BgpUpdate(
            announced=((0x0A640000, 24), (0xC0A80000, 16)),
            next_hop=0x0A000001,
            as_path=(65001, 65002),
            local_pref=200,
        )
        received = capture_receive(session_b)
        session_a.send_update(update)
        sim.run_until(2 * SECOND)
        assert [m for m in received if isinstance(m, msg.BgpUpdate)] == [update]
        for key in update.announced:
            route = only_route(b, key)
            assert route.next_hop == 0x0A000001
            assert route.as_path == [65001, 65002]
            assert route.local_pref == 200

    def test_withdraw_round_trip(self):
        sim = Simulator()
        a, b, session_a, _ = established(sim)
        session_a.send_update(
            msg.BgpUpdate(announced=((0x0A640000, 24),), next_hop=1)
        )
        sim.run_until(2 * SECOND)
        assert b.knows_route(0x0A640000, 24)
        session_a.send_update(msg.BgpUpdate(withdrawn=((0x0A640000, 24),)))
        sim.run_until(3 * SECOND)
        assert not b.knows_route(0x0A640000, 24)

    def test_mixed_round_trip(self):
        sim = Simulator()
        a, b, session_a, _ = established(sim)
        session_a.send_update(
            msg.BgpUpdate(announced=((0x0B000000, 8),), next_hop=1)
        )
        session_a.send_update(
            msg.BgpUpdate(
                announced=((0x0A000000, 8),), withdrawn=((0x0B000000, 8),), next_hop=1
            )
        )
        sim.run_until(2 * SECOND)
        assert b.knows_route(0x0A000000, 8)
        assert not b.knows_route(0x0B000000, 8)

    def test_withdrawal_needs_no_next_hop(self):
        update = msg.BgpUpdate(withdrawn=((0x0A640000, 24),))
        assert update.next_hop is None
        assert update.announced == ()

    def test_defaults_are_empty(self):
        update = msg.BgpUpdate()
        assert (update.announced, update.withdrawn, update.as_path) == ((), (), ())
        assert update.next_hop is None and update.local_pref is None

    def test_host_route(self):
        sim = Simulator()
        a, b, session_a, _ = established(sim)
        session_a.send_update(msg.BgpUpdate(announced=((0x0A0A0A0A, 32),), next_hop=1))
        sim.run_until(2 * SECOND)
        assert b.knows_route(0x0A0A0A0A, 32)

    def test_default_route(self):
        sim = Simulator()
        a, b, session_a, _ = established(sim)
        session_a.send_update(msg.BgpUpdate(announced=((0, 0),), next_hop=1))
        sim.run_until(2 * SECOND)
        assert only_route(b, (0, 0)).next_hop == 1

    def test_one_update_reaches_every_peer(self):
        sim = Simulator()
        origin, *peers = speakers(sim, 4)
        receivers = []
        for peer in peers:
            _, session_peer, _ = establish_pair(sim, origin, peer)
            receivers.append(capture_receive(session_peer))
        sim.run_until(1 * SECOND)
        origin.advertise(0x0A640000, 32)
        sim.run_until(2 * SECOND)
        updates = [
            [m for m in received if isinstance(m, msg.BgpUpdate)]
            for received in receivers
        ]
        assert all(len(batch) == 1 for batch in updates)
        assert updates[0][0] is updates[1][0] is updates[2][0]
        assert all(peer.knows_route(0x0A640000, 32) for peer in peers)

    @settings(max_examples=50, deadline=None)
    @given(
        prefixes=st.lists(
            st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 32)),
            min_size=0,
            max_size=8,
            unique=True,
        ),
        next_hop=st.integers(1, 0xFFFFFFFF),
        as_path=st.lists(st.integers(65000, 65100), max_size=4),
    )
    def test_property_round_trip(self, prefixes, next_hop, as_path):
        sim = Simulator()
        a, b, session_a, session_b = established(sim)
        update = msg.BgpUpdate(
            announced=tuple(prefixes),
            next_hop=next_hop if prefixes else None,
            as_path=tuple(as_path),
        )
        received = capture_receive(session_b)
        session_a.send_update(update)
        sim.run_until(2 * SECOND)
        assert [m for m in received if isinstance(m, msg.BgpUpdate)] == [update]
        assert sorted(b.rib) == sorted(prefixes)
        for key in prefixes:
            route = only_route(b, key)
            assert route.next_hop == next_hop
            assert route.as_path == as_path


class TestKeepaliveNotification:
    def test_keepalive_round_trip(self):
        sim = Simulator()
        a, b, session_a, session_b = established(sim, hold_time_s=9)
        received = capture_receive(session_b)
        sim.run_until(1 * SECOND + 9 * SECOND)
        # Keepalives every hold/3 = 3 s once established.
        assert received == [msg.BgpKeepalive()] * 3
        assert session_b.state is BgpState.ESTABLISHED

    def test_keepalives_are_equal(self):
        assert msg.BgpKeepalive() == msg.BgpKeepalive()
        assert msg.BgpKeepalive() != msg.BgpNotification(0)

    def test_notification_round_trip(self):
        sim = Simulator()
        a, b, session_a, session_b = established(sim)
        downs = []
        b.on_session_down = lambda session, reason: downs.append(reason)
        received = capture_receive(session_b)
        session_a.stop()
        sim.run_until(2 * SECOND)
        assert received == [msg.BgpNotification(code=6, subcode=0)]
        assert downs == ["notification_6"]
        assert session_b.state is BgpState.IDLE

    def test_hold_expiry_sends_notification_4(self):
        sim, _, session, sent = session_in(BgpState.ESTABLISHED)
        sim.run_until(sim.now + 90 * SECOND)
        assert sent[-1] == msg.BgpNotification(4)
        assert session.state is BgpState.IDLE

    def test_stop_before_open_sends_nothing(self):
        sim, _, session, sent = session_in(BgpState.CONNECT)
        session.stop()
        assert sent == []
        assert session.state is BgpState.IDLE


class TestMessageObjects:
    MESSAGES = [
        msg.BgpOpen(65001, 90, 0x0A000001),
        msg.BgpUpdate(announced=((0x0A000000, 8),), next_hop=5, as_path=(65001,)),
        msg.BgpKeepalive(),
        msg.BgpNotification(6, 2),
    ]
    IDS = ["open", "update", "keepalive", "notification"]

    @pytest.mark.parametrize("message", MESSAGES, ids=IDS)
    def test_fields_cannot_be_reassigned(self, message):
        for field in dataclasses.fields(message):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(message, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.extra = 1

    @pytest.mark.parametrize("message", MESSAGES, ids=IDS)
    def test_equal_by_value_and_hashable(self, message):
        copy = dataclasses.replace(message)
        assert copy == message and copy is not message
        assert hash(copy) == hash(message)
        assert {message: 1}[copy] == 1


# (state, message, state after, messages the session sends in reply)
DISPATCH = [
    (BgpState.IDLE, msg.BgpOpen(65100, 90, 1), BgpState.OPEN_CONFIRM,
     [msg.BgpOpen(65001, 90, 0x0A000000), msg.BgpKeepalive()]),
    (BgpState.IDLE, msg.BgpKeepalive(), BgpState.IDLE, []),
    (BgpState.IDLE, msg.BgpUpdate(withdrawn=((1, 32),)), BgpState.IDLE,
     [msg.BgpNotification(5)]),
    (BgpState.IDLE, msg.BgpNotification(6), BgpState.IDLE, []),
    (BgpState.CONNECT, msg.BgpOpen(65100, 90, 1), BgpState.CONNECT, []),
    (BgpState.CONNECT, msg.BgpKeepalive(), BgpState.CONNECT, []),
    (BgpState.CONNECT, msg.BgpUpdate(withdrawn=((1, 32),)), BgpState.IDLE,
     [msg.BgpNotification(5)]),
    (BgpState.CONNECT, msg.BgpNotification(6), BgpState.IDLE, []),
    (BgpState.OPEN_SENT, msg.BgpOpen(65100, 90, 1), BgpState.OPEN_CONFIRM,
     [msg.BgpKeepalive()]),
    (BgpState.OPEN_SENT, msg.BgpKeepalive(), BgpState.OPEN_SENT, []),
    (BgpState.OPEN_SENT, msg.BgpUpdate(withdrawn=((1, 32),)), BgpState.IDLE,
     [msg.BgpNotification(5)]),
    (BgpState.OPEN_SENT, msg.BgpNotification(6), BgpState.IDLE, []),
    (BgpState.OPEN_CONFIRM, msg.BgpOpen(65100, 90, 1), BgpState.OPEN_CONFIRM, []),
    (BgpState.OPEN_CONFIRM, msg.BgpKeepalive(), BgpState.ESTABLISHED, []),
    (BgpState.OPEN_CONFIRM, msg.BgpUpdate(withdrawn=((1, 32),)), BgpState.IDLE,
     [msg.BgpNotification(5)]),
    (BgpState.OPEN_CONFIRM, msg.BgpNotification(6), BgpState.IDLE, []),
    (BgpState.ESTABLISHED, msg.BgpOpen(65100, 90, 1), BgpState.ESTABLISHED, []),
    (BgpState.ESTABLISHED, msg.BgpKeepalive(), BgpState.ESTABLISHED, []),
    (BgpState.ESTABLISHED, msg.BgpUpdate(withdrawn=((1, 32),)),
     BgpState.ESTABLISHED, []),
    (BgpState.ESTABLISHED, msg.BgpNotification(6), BgpState.IDLE, []),
]


class TestReceiveDispatch:
    @pytest.mark.parametrize(
        "state,message,after,replies",
        DISPATCH,
        ids=[f"{case[0].value}-{type(case[1]).__name__}" for case in DISPATCH],
    )
    def test_receive_in_every_state(self, state, message, after, replies):
        sim, speaker, session, sent = session_in(state)
        received = session.messages_received
        session.receive(message)
        assert session.state is after
        assert sent == replies
        assert session.messages_received == received + 1

    def test_update_when_established_reaches_the_speaker(self):
        sim, speaker, session, sent = session_in(BgpState.ESTABLISHED)
        update = msg.BgpUpdate(announced=((0x0A640000, 32),), next_hop=7)
        session.receive(update)
        assert only_route(speaker, (0x0A640000, 32)).next_hop == 7
        assert sent == []

    def test_keepalive_in_open_confirm_brings_the_session_up(self):
        sim, speaker, session, _ = session_in(BgpState.OPEN_CONFIRM)
        session.receive(msg.BgpKeepalive())
        assert speaker.session_up_count == 1

    def test_notification_when_established_brings_the_session_down(self):
        sim, speaker, session, _ = session_in(BgpState.ESTABLISHED)
        session.receive(msg.BgpNotification(4))
        assert speaker.session_down_count == 1
        assert session.state is BgpState.IDLE
