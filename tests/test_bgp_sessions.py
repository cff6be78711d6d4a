"""BGP FSM, speaker, BFD, switch and proxy tests."""

import pytest

from repro.analysis.sanitizer import install, uninstall
from repro.bgp.bfd import BfdLink, BfdPacket, BfdSession, BfdState, bfd_pair
from repro.bgp.fsm import BgpState, establish_pair
from repro.bgp.messages import BgpUpdate
from repro.bgp.proxy import BgpProxy
from repro.bgp.speaker import BgpSpeaker, RouteEntry
from repro.bgp.switch import (
    SAFE_PEER_THRESHOLD,
    UplinkSwitch,
    direct_peering_count,
    proxied_peering_count,
)
from repro.sim import MS, SECOND, Simulator
from tests.timer_restore import assert_restored_run_matches, fired, live_events


def only_route(speaker, key):
    """The RIB entry for ``key`` that the speaker's one announcing peer sent."""
    [entry] = speaker.rib[key].values()
    return entry


def speakers(sim, count=2, asn=65001):
    return [
        BgpSpeaker(sim, f"s{index}", asn + index, 0x0A000000 + index)
        for index in range(count)
    ]


class TestFsm:
    def test_session_establishes(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, session_b, _ = establish_pair(sim, a, b)
        sim.run_until(1 * SECOND)
        assert session_a.state is BgpState.ESTABLISHED
        assert session_b.state is BgpState.ESTABLISHED
        assert a.session_up_count == 1

    def test_hold_time_negotiated_down(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a = establish_pair(sim, a, b, hold_time_s=90)[0]
        session_a.hold_time_s = 30
        sim.run_until(1 * SECOND)
        assert session_a.hold_time_s == 30

    def test_keepalives_maintain_session(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, session_b, _ = establish_pair(sim, a, b, hold_time_s=9)
        sim.run_until(60 * SECOND)
        assert session_a.state is BgpState.ESTABLISHED
        assert session_a.messages_received > 10

    def test_link_failure_expires_hold_timer(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, _, link = establish_pair(sim, a, b, hold_time_s=9)
        sim.run_until(1 * SECOND)
        link.fail()
        sim.run_until(15 * SECOND)
        assert session_a.state is BgpState.IDLE
        assert a.session_down_count == 1

    def test_stop_sends_notification(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, session_b, _ = establish_pair(sim, a, b)
        sim.run_until(1 * SECOND)
        session_a.stop("admin")
        sim.run_until(2 * SECOND)
        assert session_b.state is BgpState.IDLE

    def test_send_update_before_established_raises(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a = establish_pair(sim, a, b)[0]
        update = BgpUpdate(announced=((0x0A640000, 24),), next_hop=1)
        with pytest.raises(RuntimeError, match="not established"):
            session_a.send_update(update)

    def test_update_before_established_is_an_fsm_error(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, session_b, link = establish_pair(sim, a, b)
        sim.run_until(1 * SECOND)
        session_b.stop("test")
        sent = session_b.messages_sent
        update = BgpUpdate(announced=((0x0A640000, 24),), next_hop=1)
        session_b.receive(update)
        assert session_b.state is BgpState.IDLE
        # It answered with a NOTIFICATION and learned nothing.
        assert session_b.messages_sent == sent + 1
        assert not b.knows_route(0x0A640000, 24)

    def test_announcement_without_next_hop_raises(self):
        with pytest.raises(ValueError, match="next hop"):
            BgpUpdate(announced=((0, 0),))

    def test_start_is_idempotent(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, session_b, _ = establish_pair(sim, a, b)
        session_a.start()
        sim.run_until(1 * SECOND)
        assert session_a.state is BgpState.ESTABLISHED
        assert a.session_up_count == 1

    def test_zero_hold_time_disables_the_hold_timer(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, session_b, link = establish_pair(sim, a, b, hold_time_s=0)
        sim.run_until(1 * SECOND)
        assert session_a.state is BgpState.ESTABLISHED
        link.fail()
        sim.run_until(10 * 60 * SECOND)
        assert session_a.state is BgpState.ESTABLISHED
        assert a.session_down_count == 0

    def test_lossy_link_counts_lost_messages(self):
        sim = Simulator()
        a, b = speakers(sim)
        _, _, link = establish_pair(sim, a, b, loss_fn=lambda: True)
        sim.run_until(1 * SECOND)
        assert link.delivered == 0
        assert link.lost >= 1

    def test_failed_link_counts_lost_then_recovers(self):
        sim = Simulator()
        a, b = speakers(sim)
        session_a, _, link = establish_pair(sim, a, b, hold_time_s=9)
        sim.run_until(1 * SECOND)
        link.fail()
        sim.run_until(4 * SECOND)
        lost = link.lost
        assert lost >= 1
        link.recover()
        delivered = link.delivered
        sim.run_until(7 * SECOND)
        assert link.delivered > delivered
        assert link.lost == lost
        assert session_a.state is BgpState.ESTABLISHED


class TestSpeakerRoutes:
    def _established(self):
        sim = Simulator()
        a, b = speakers(sim)
        establish_pair(sim, a, b)
        sim.run_until(1 * SECOND)
        return sim, a, b

    def test_advertise_reaches_peer(self):
        sim, a, b = self._established()
        a.advertise(0x0A640000, 24)
        sim.run_until(2 * SECOND)
        assert b.knows_route(0x0A640000, 24)
        assert only_route(b, (0x0A640000, 24)).as_path == [a.asn]

    def test_withdraw_removes_route(self):
        sim, a, b = self._established()
        a.advertise(0x0A640000, 24)
        sim.run_until(2 * SECOND)
        a.withdraw(0x0A640000, 24)
        sim.run_until(3 * SECOND)
        assert not b.knows_route(0x0A640000, 24)

    def test_routes_advertised_on_session_up(self):
        """Pre-existing local routes flood when a peer comes up."""
        sim = Simulator()
        a, b = speakers(sim)
        a.advertise(0x0A640000, 24)  # no peers yet
        establish_pair(sim, a, b)
        sim.run_until(1 * SECOND)
        assert b.knows_route(0x0A640000, 24)

    def test_session_death_flushes_learned_routes(self):
        sim, a, b = self._established()
        a.advertise(0x0A640000, 24)
        sim.run_until(2 * SECOND)
        a.sessions["s1"].stop("test")
        sim.run_until(3 * SECOND)
        assert not b.knows_route(0x0A640000, 24)

    def test_rib_keeps_one_entry_per_announcing_peer(self):
        sim = Simulator()
        hub, left, right = speakers(sim, count=3)
        establish_pair(sim, left, hub)
        establish_pair(sim, right, hub)
        sim.run_until(1 * SECOND)
        left.advertise(0x0A640000, 24)
        right.advertise(0x0A640000, 24)
        sim.run_until(2 * SECOND)
        assert len(hub.rib[(0x0A640000, 24)]) == 2

    def test_unknown_prefix_is_not_known(self):
        sim, a, b = self._established()
        assert (0x0B000000, 8) not in b.rib
        assert not b.knows_route(0x0B000000, 8)

    def test_withdrawing_an_unknown_route_sends_nothing(self):
        sim, a, b = self._established()
        sent = a.sessions["s1"].messages_sent
        a.withdraw(0x0A640000, 24)
        assert a.sessions["s1"].messages_sent == sent

    def test_route_change_log_records_announce_and_withdraw(self):
        sim, a, b = self._established()
        a.advertise(0x0A640000, 24)
        sim.run_until(2 * SECOND)
        a.withdraw(0x0A640000, 24)
        sim.run_until(3 * SECOND)
        kinds = [(kind, key, peer) for _, kind, key, peer in b.route_change_log]
        assert kinds == [
            ("announce", (0x0A640000, 24), "s0"),
            ("withdraw", (0x0A640000, 24), "s0"),
        ]

    def test_route_entry_text(self):
        entry = RouteEntry(0x0A640000, 24, 0x0A000001, [65001], "s0")
        assert repr(entry) == "RouteEntry(0x0a640000/24 via 0x0a000001 from s0)"


class TestBfd:
    def test_pair_comes_up(self):
        sim = Simulator()
        a, b = bfd_pair(sim)
        sim.run_until(1 * SECOND)
        assert a.state is BfdState.UP
        assert b.state is BfdState.UP

    def test_packet_round_trip(self):
        sim = Simulator()
        sent = []
        a, b = bfd_pair(sim)
        b_send = b.send_fn
        b.send_fn = lambda packet: (sent.append(packet), b_send(packet))
        sim.run_until(1 * SECOND)
        assert sent[0] == BfdPacket(BfdState.DOWN, 3, 2, 0)
        # Once a's probe arrived, b echoes a's discriminator and reports UP.
        assert sent[-1] == BfdPacket(BfdState.UP, 3, 2, 1)
        assert a.peer_discriminator == 2 and b.peer_discriminator == 1

    def test_three_missed_probes_detects_failure(self):
        """RFC 5880 / §4.3: 3 lost probes tear the link down."""
        sim = Simulator()
        downs = []
        lossy = {"drop": False}
        a, b = bfd_pair(
            sim,
            interval_ns=50 * MS,
            loss_fn_ab=lambda: lossy["drop"],
            loss_fn_ba=lambda: lossy["drop"],
            on_down=lambda session: downs.append((session.name, sim.now)),
        )
        sim.run_until(1 * SECOND)
        assert a.state is BfdState.UP
        blackout_start = sim.now
        lossy["drop"] = True
        sim.run_until(blackout_start + 200 * MS)
        assert a.state is BfdState.DOWN
        assert downs
        # Detection within ~3 intervals + latency.
        detect_delay = downs[0][1] - blackout_start
        assert detect_delay <= 3 * 50 * MS + 10 * MS

    def test_single_lost_probe_tolerated(self):
        sim = Simulator()
        drops = {"count": 0}

        def drop_one():
            if drops["count"] == 0 and sim.now > 500 * MS:
                drops["count"] += 1
                return True
            return False

        a, b = bfd_pair(sim, interval_ns=50 * MS, loss_fn_ab=drop_one)
        sim.run_until(2 * SECOND)
        assert b.state is BfdState.UP
        assert b.down_events == 0

    def test_detect_time(self):
        sim = Simulator()
        session = BfdSession(sim, "x", lambda data: None, interval_ns=50 * MS)
        assert session.detect_time_ns == 150 * MS

    def test_pair_restored_mid_run_fires_where_the_straight_run_does(self):
        # b hears nothing from a in [1.2 s, 1.5 s): a detect expiry, then
        # a new handshake.  Restored at 1.01 s, no probe on the wire.
        def world():
            sim = Simulator()
            log = fired(sim)
            pair = bfd_pair(sim, loss_fn_ab=lambda: 1_200 * MS <= sim.now < 1_500 * MS)
            return sim, list(pair), log

        after = assert_restored_run_matches(
            world, lambda sim, parts: sim.run_until(1_010 * MS), [(3 * SECOND, None)])
        assert "BfdSession._detect_expired" in {entry[2] for entry in after}

    def test_restoring_a_down_snapshot_cancels_detection(self):
        sim = Simulator()
        link = BfdLink(sim)
        sim.run_until(1 * SECOND)
        link.set_down()
        sim.run_until(1 * SECOND + 200 * MS)
        assert link.a.state is BfdState.DOWN
        down = (sim.checkpoint(), link.checkpoint())
        # An UP twin whose detect timers are pending (at ~1.15 s), no
        # probe on the wire, restored as RunHandle.restore_checkpoint
        # does: the simulator first.
        other_sim = Simulator()
        other = BfdLink(other_sim)
        other_sim.run_until(1_010 * MS)
        assert other.sessions_up
        other_sim.restore(down[0])
        other.restore(down[1])
        assert other.a.checkpoint()["detect"] is None
        sim.run_until(2 * SECOND)
        other_sim.run_until(2 * SECOND)
        # A stale expiry would have fired, behind the clock: one more event.
        assert other_sim.checkpoint() == sim.checkpoint()
        assert other.checkpoint() == link.checkpoint()
        assert other.a.state is BfdState.DOWN
        assert other.a.down_events == 1


class TestBfdLink:
    def test_flap_detected_then_recovered(self):
        sim = Simulator()
        link = BfdLink(sim)
        sim.run_until(1 * SECOND)
        assert link.sessions_up
        link.set_down()
        sim.run_until(1 * SECOND + 200 * MS)
        assert not link.sessions_up
        assert link.probes_lost > 0
        link.set_up()
        sim.run_until(2 * SECOND)
        assert link.sessions_up
        assert (link.a.down_events, link.b.down_events) == (1, 1)

    def test_repeated_set_down_is_one_flap(self):
        sim = Simulator()
        link = BfdLink(sim)
        link.set_down()
        link.set_down()
        assert link.flaps == 1
        link.set_up()
        link.set_down()
        assert link.flaps == 2

    def test_pair_discriminators_come_from_the_pair(self):
        first = BfdLink(Simulator())
        second = BfdLink(Simulator())
        assert (first.a.discriminator, first.b.discriminator) == (1, 2)
        assert first.checkpoint() == second.checkpoint()

    def test_checkpoint_restore_round_trip(self):
        sim = Simulator()
        link = BfdLink(sim)
        sim.run_until(1 * SECOND)
        link.set_down()
        sim.run_until(1 * SECOND + 200 * MS)
        snapshot = link.checkpoint()
        other_sim = Simulator()
        other = BfdLink(other_sim)
        other_sim.restore(sim.checkpoint())
        other.restore(snapshot)
        assert other.checkpoint() == snapshot
        assert not other.up

    def test_link_restored_across_a_flap_fires_where_the_straight_run_does(self):
        # Cut at 1 s, restored at 1.11 s while both ends still wait out
        # their detect timers (every probe is lost: none on the wire),
        # brought back at 1.4 s.
        def world():
            sim = Simulator()
            log = fired(sim)
            return sim, [BfdLink(sim)], log

        def cut(sim, parts):
            sim.run_until(1 * SECOND)
            parts[0].set_down()
            sim.run_until(1_110 * MS)

        after = assert_restored_run_matches(world, cut, [
            (1_400 * MS, lambda parts: parts[0].set_up()),
            (3 * SECOND, None),
        ])
        assert "BfdSession._detect_expired" in {entry[2] for entry in after}

    @pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "sanitized"])
    def test_a_twin_with_probes_on_the_wire_fires_nothing_behind_the_restored_clock(
            self, sanitized):
        # The twin runs to 1.0 s, probe deliveries queued by the send
        # functions (no owner holds them); the snapshot is the link cut at
        # 1.0 s and 1.2 s in.  Those deliveries are dropped by the restore.
        def world():
            if sanitized:
                install()
            try:
                sim = Simulator()
            finally:
                uninstall()     # the sanitizer is resolved at construction
            log = fired(sim)
            return sim, BfdLink(sim), log

        sim, link, _ = world()
        sim.run_until(1 * SECOND)
        link.set_down()
        sim.run_until(1_200 * MS)
        snapshot = (sim.checkpoint(), link.checkpoint())
        other_sim, other, other_log = world()
        other_sim.run_until(1 * SECOND)
        assert live_events(other_sim) > 2    # more than the two transmit tasks
        other_sim.restore(snapshot[0])
        other.restore(snapshot[1])
        restored_at = len(other_log)
        for side in (sim, other_sim):
            side.run_until(2 * SECOND)
        assert all(entry[0] >= 1_200 * MS for entry in other_log[restored_at:])
        assert other_sim.checkpoint() == sim.checkpoint()
        assert other.checkpoint() == link.checkpoint()


class TestSwitchModel:
    def test_convergence_fast_within_threshold(self):
        fast = UplinkSwitch.convergence_time_ns(32)
        assert fast < 10 * SECOND

    def test_convergence_degrades_past_threshold(self):
        """§5: beyond 64 peers, convergence can reach tens of minutes."""
        slow = UplinkSwitch.convergence_time_ns(128)
        assert slow > 10 * 60 * SECOND
        assert UplinkSwitch.convergence_time_ns(256) > slow

    @pytest.mark.parametrize(
        "peers,extra_ns",
        [(62, 100 * MS), (63, 100 * MS), (64, 400 * MS), (65, 1_000 * MS)],
    )
    def test_peers_past_the_threshold_cost_quadratically(self, peers, extra_ns):
        """Going from ``peers`` to ``peers + 1`` costs 100 ms while the result
        stays within the 64 safe peers; the 65th peer is the first to add the
        quadratic term."""
        assert SAFE_PEER_THRESHOLD == 64
        delta = (UplinkSwitch.convergence_time_ns(peers + 1)
                 - UplinkSwitch.convergence_time_ns(peers))
        assert delta == extra_ns

    def test_peer_count_arithmetic(self):
        assert direct_peering_count(32, 4) == 128
        assert proxied_peering_count(32) == 32

    def test_restart_flushes_and_reports_convergence(self):
        sim = Simulator()
        switch = UplinkSwitch(sim, "sw")
        pod = BgpSpeaker(sim, "pod", 65001, 0x0A000001)
        establish_pair(sim, pod, switch)
        sim.run_until(1 * SECOND)
        pod.advertise(0x0A640000, 32)
        sim.run_until(2 * SECOND)
        assert switch.route_count() == 1
        convergence = switch.restart()
        assert convergence > 0
        assert switch.route_count() == 0
        assert switch.restarts == 1


class TestProxy:
    def _setup(self, pods=3):
        sim = Simulator()
        switch = UplinkSwitch(sim, "switch")
        proxy = BgpProxy(
            sim, "proxy", 65100, 0x0A000100, switch_peer_name="switch",
            router_ip=0x0A000100,
        )
        establish_pair(sim, proxy, switch, hold_time_s=9)
        pod_speakers = []
        for index in range(pods):
            pod = BgpSpeaker(sim, f"pod{index}", 65100, 0x0A000200 + index)
            establish_pair(sim, pod, proxy, hold_time_s=9)
            pod_speakers.append(pod)
        sim.run_until(1 * SECOND)
        return sim, switch, proxy, pod_speakers

    def test_pod_routes_reexported_to_switch(self):
        sim, switch, proxy, pods = self._setup()
        for index, pod in enumerate(pods):
            pod.advertise(0x0A640000 + index, 32)
        sim.run_until(2 * SECOND)
        assert switch.route_count() == len(pods)
        # Next hop rewritten to the proxy.
        best = only_route(switch, (0x0A640000, 32))
        assert best.next_hop == proxy.router_ip
        assert best.as_path[0] == proxy.asn

    def test_switch_sees_one_peer(self):
        _, switch, _, pods = self._setup(pods=4)
        assert switch.peer_count == 1

    def test_withdrawal_propagates(self):
        sim, switch, _, pods = self._setup()
        pods[0].advertise(0x0A640000, 32)
        sim.run_until(2 * SECOND)
        pods[0].withdraw(0x0A640000, 32)
        sim.run_until(3 * SECOND)
        assert not switch.knows_route(0x0A640000, 32)

    def test_pod_death_withdraws_its_routes(self):
        sim, switch, _, pods = self._setup()
        for index, pod in enumerate(pods):
            pod.advertise(0x0A640000 + index, 32)
        sim.run_until(2 * SECOND)
        pods[0].sessions["proxy"].stop("died")
        sim.run_until(3 * SECOND)
        assert not switch.knows_route(0x0A640000, 32)
        assert switch.knows_route(0x0A640001, 32)

    def test_reexport_leaves_the_pod_update_unchanged(self):
        sim, switch, proxy, pods = self._setup()
        fields = dict(announced=((0x0A640000, 32),), next_hop=0x0A000200,
                      as_path=(65100,), local_pref=100)
        update = BgpUpdate(**fields)
        with pytest.raises(AttributeError):
            update.as_path = ()
        pods[0].sessions["proxy"].send_update(update)
        sim.run_until(2 * SECOND)
        assert only_route(switch, (0x0A640000, 32)).as_path == [proxy.asn, 65100]
        assert only_route(proxy, (0x0A640000, 32)).as_path == [65100]
        assert update == BgpUpdate(**fields)

    def test_switch_routes_not_reflected_to_pods(self):
        sim, switch, proxy, pods = self._setup()
        switch.advertise(0, 0)  # default route from the fabric
        sim.run_until(2 * SECOND)
        assert proxy.reexported == 0
