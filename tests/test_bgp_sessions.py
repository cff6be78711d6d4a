"""BGP FSM, speaker, BFD, switch and proxy tests."""

import pytest

from repro.bgp.bfd import BfdLink, BfdPacket, BfdSession, BfdState, bfd_pair
from repro.bgp.fsm import BgpState, establish_pair
from repro.bgp.messages import BgpUpdate
from repro.bgp.proxy import BgpProxy
from repro.bgp.speaker import BgpSpeaker, RouteEntry
from repro.bgp.switch import (
    SAFE_PEER_THRESHOLD,
    UplinkSwitch,
    direct_peering_count,
    max_pods_per_server_direct,
    proxied_peering_count,
)
from repro.sim import MS, SECOND, Simulator


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
        assert b.best_route(0x0A640000, 24).as_path == [a.asn]

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

    def test_best_route_prefers_local_pref(self):
        sim = Simulator()
        hub, left, right = speakers(sim, count=3)
        establish_pair(sim, left, hub)
        establish_pair(sim, right, hub)
        sim.run_until(1 * SECOND)
        left.advertise(0x0A640000, 24)
        right.advertise(0x0A640000, 24)
        sim.run_until(2 * SECOND)
        best = hub.best_route(0x0A640000, 24)
        assert best is not None
        assert len(hub.rib[(0x0A640000, 24)]) == 2

    @pytest.mark.parametrize(
        "paths,expected",
        [
            ({"long": ([1, 2, 3], 100), "short": ([9], 100)}, "short"),
            ({"long": ([1, 2, 3], 200), "short": ([9], 100)}, "long"),
            # A route without LOCAL_PREF ranks as the default 100.
            ({"unset": ([1], None), "low": ([1], 90)}, "unset"),
        ],
        ids=["shorter-path", "local-pref-first", "default-pref"],
    )
    def test_best_route_selection(self, paths, expected):
        speaker = BgpSpeaker(Simulator(), "hub", 65000, 1)
        key = (0x0A640000, 24)
        speaker.rib[key] = {
            peer: RouteEntry(*key, 1, as_path, peer, local_pref)
            for peer, (as_path, local_pref) in paths.items()
        }
        assert speaker.best_route(*key).peer_name == expected

    def test_unknown_prefix_has_no_best_route(self):
        sim, a, b = self._established()
        assert b.best_route(0x0B000000, 8) is None
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

    def test_route_entry_text_and_key(self):
        entry = RouteEntry(0x0A640000, 24, 0x0A000001, [65001], "s0")
        assert entry.key() == (0x0A640000, 24)
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
        session.stop()

    def test_stop_halts_probes_and_detection(self):
        sim = Simulator()
        downs = []
        a, b = bfd_pair(sim, on_down=downs.append)
        sim.run_until(1 * SECOND)
        a.stop()
        sent = a.probes_sent
        sim.run_until(2 * SECOND)
        assert a.probes_sent == sent
        # b stops hearing a and goes down; a's own timer was cancelled.
        assert b.state is BfdState.DOWN
        assert a.state is BfdState.UP
        assert downs == [b]

    def test_restoring_a_down_snapshot_cancels_detection(self):
        sim = Simulator()
        a, b = bfd_pair(sim)
        down_snapshot = a.checkpoint()
        # Between probes, so none of b's is still on the wire when it stops.
        sim.run_until(1 * SECOND + 10 * MS)
        assert a.state is BfdState.UP
        b.stop()
        a.restore(down_snapshot)
        sim.run_until(2 * SECOND)
        assert a.state is BfdState.DOWN
        assert a.down_events == 0


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
        link.stop()

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
        other = BfdLink(Simulator())
        other.restore(snapshot)
        assert other.checkpoint() == snapshot
        assert not other.up

    def test_stop_silences_both_endpoints(self):
        sim = Simulator()
        link = BfdLink(sim)
        sim.run_until(1 * SECOND)
        link.stop()
        counts = (link.a.probes_sent, link.b.probes_sent)
        sim.run_until(5 * SECOND)
        assert (link.a.probes_sent, link.b.probes_sent) == counts
        assert sim.pending == 0


class TestSwitchModel:
    def test_convergence_fast_within_threshold(self):
        fast = UplinkSwitch.convergence_time_ns(32)
        assert fast < 10 * SECOND

    def test_convergence_degrades_past_threshold(self):
        """§5: beyond 64 peers, convergence can reach tens of minutes."""
        slow = UplinkSwitch.convergence_time_ns(128)
        assert slow > 10 * 60 * SECOND
        assert UplinkSwitch.convergence_time_ns(256) > slow

    def test_peer_count_arithmetic(self):
        assert direct_peering_count(32, 4) == 128
        assert proxied_peering_count(32) == 32
        assert max_pods_per_server_direct() == 2

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

    def test_overload_predicate(self):
        sim = Simulator()
        switch = UplinkSwitch(sim, "sw")
        assert not switch.is_overloaded()


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
        best = switch.best_route(0x0A640000, 32)
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
        assert switch.best_route(0x0A640000, 32).as_path == [proxy.asn, 65100]
        assert proxy.best_route(0x0A640000, 32).as_path == [65100]
        assert update == BgpUpdate(**fields)

    def test_switch_routes_not_reflected_to_pods(self):
        sim, switch, proxy, pods = self._setup()
        switch.advertise(0, 0)  # default route from the fabric
        sim.run_until(2 * SECOND)
        assert proxy.reexported == 0
