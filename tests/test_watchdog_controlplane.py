"""PLB watchdog fallback and pod control-plane integration tests."""

import os
import subprocess
import sys

import pytest

import repro
from repro.bgp.bfd import BfdPacket, BfdSession, BfdState
from repro.bgp.fsm import BgpState
from repro.bgp.pod import BFD_PORT, PROTOCOL_PACKET_BYTES, PodControlPlane
from repro.bgp.switch import UplinkSwitch
from repro.core.gateway import AlbatrossServer
from repro.core.watchdog import PlbWatchdog
from repro.packet.packet import PacketKind
from repro.scenarios import PodSpec
from repro.sim import MS, RngRegistry, SECOND, Simulator
from repro.workloads.generators import CbrSource, uniform_population


def make_pod(**overrides):
    sim = Simulator()
    rngs = RngRegistry(seed=59)
    server = AlbatrossServer(sim, rngs)
    defaults = dict(name="gw", data_cores=2)
    defaults.update(overrides)
    pod = server.add_pod(PodSpec(**defaults))
    return sim, rngs, pod


class TestWatchdog:
    def _flooded_pod(self, silent_drop_probability, **watchdog_kwargs):
        sim, rngs, pod = make_pod(
            silent_drop_probability=silent_drop_probability,
            drop_flag_enabled=False,
        )
        watchdog = PlbWatchdog(
            sim,
            pod.nic,
            hol_events_per_s_threshold=100.0,
            strikes=3,
            period_ns=20 * MS,
            **watchdog_kwargs,
        )
        population = uniform_population(100, tenants=10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=200_000)
        return sim, pod, watchdog

    def test_healthy_pod_stays_in_plb(self):
        sim, pod, watchdog = self._flooded_pod(silent_drop_probability=0.0)
        sim.run_until(500 * MS)
        assert pod.nic.mode == "plb"
        assert watchdog.fallbacks == 0

    def test_sustained_hol_triggers_fallback(self):
        """Pathological silent loss -> HOL storm -> RSS fallback."""
        sim, pod, watchdog = self._flooded_pod(silent_drop_probability=0.05)
        sim.run_until(500 * MS)
        assert watchdog.fallbacks == 1
        assert pod.nic.mode == "rss"
        assert watchdog.in_fallback

    def test_fallback_stops_hol_growth(self):
        sim, pod, watchdog = self._flooded_pod(silent_drop_probability=0.05)
        sim.run_until(500 * MS)
        hol_at_fallback = pod.reorder_stats.hol_events
        sim.run_until(1 * SECOND)
        # RSS traffic bypasses the reorder FIFOs entirely; only packets
        # already in flight at the switch can still time out.
        assert pod.reorder_stats.hol_events - hol_at_fallback < 50

    def test_single_strike_is_tolerated(self):
        """One bad period must not flip the mode (minor HOL is normal)."""
        sim, pod, watchdog = self._flooded_pod(silent_drop_probability=0.0)
        # Manufacture one noisy period by bumping the counter directly.
        pod.nic.reorder.stats.hol_events += 1_000_000
        sim.run_until(100 * MS)
        assert watchdog.fallbacks == 0
        assert pod.nic.mode == "plb"

    def test_auto_restore(self):
        sim, pod, watchdog = self._flooded_pod(
            silent_drop_probability=0.05, auto_restore_after_ns=200 * MS
        )
        sim.run_until(2 * SECOND)
        assert watchdog.fallbacks >= 1
        assert watchdog.restores >= 1

    def test_stop(self):
        sim, pod, watchdog = self._flooded_pod(silent_drop_probability=0.05)
        watchdog.stop()
        sim.run_until(500 * MS)
        assert watchdog.fallbacks == 0


class TestPodControlPlane:
    def test_default_bgp_id_is_the_same_in_every_process(self):
        probe = (
            "from repro.bgp.pod import PodControlPlane\n"
            "from repro.core.gateway import AlbatrossServer\n"
            "from repro.scenarios import PodSpec\n"
            "from repro.sim import RngRegistry, Simulator\n"
            "server = AlbatrossServer(Simulator(), RngRegistry(seed=59))\n"
            "pod = server.add_pod(PodSpec(name='pod0', data_cores=2))\n"
            "print(PodControlPlane(pod).speaker.bgp_id)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        ids = [
            subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                timeout=60,
            ).stdout
            for seed in ("1", "2")
        ]
        assert ids[0].strip().isdigit()
        assert ids[0] == ids[1]

    def test_bgp_session_establishes_through_priority_path(self):
        sim, rngs, pod = make_pod()
        switch = UplinkSwitch(sim, "switch")
        control = PodControlPlane(pod, asn=65001)
        session = control.connect_switch(switch)
        sim.run_until(2 * SECOND)
        assert session.state is BgpState.ESTABLISHED
        # Every outbound BGP message crossed the pod's priority queue.
        assert pod.counters.get("rx_priority") >= session.messages_sent

    def test_vip_advertisement_reaches_switch(self):
        sim, rngs, pod = make_pod()
        switch = UplinkSwitch(sim, "switch")
        control = PodControlPlane(pod, asn=65001)
        control.connect_switch(switch)
        sim.run_until(1 * SECOND)
        control.advertise_vip(0x0A640001)
        sim.run_until(2 * SECOND)
        assert switch.knows_route(0x0A640001, 32)
        control.withdraw_vip(0x0A640001)
        sim.run_until(3 * SECOND)
        assert not switch.knows_route(0x0A640001, 32)

    def test_bgp_survives_data_plane_saturation(self):
        """The whole point of the priority path, end to end with every
        BGP message riding a protocol packet through the pod."""
        # A slow synthetic service makes two hold times of 3x overload
        # affordable: ~50k packets instead of millions.
        sim, rngs, pod = make_pod(
            rx_capacity=128, per_core_pps=1_250
        )
        switch = UplinkSwitch(sim, "switch")
        control = PodControlPlane(pod, asn=65001)
        hold_time_s = 3
        session = control.connect_switch(switch, hold_time_s=hold_time_s)
        sim.run_until(1 * SECOND)
        assert session.state is BgpState.ESTABLISHED
        # Saturate the data plane at 3x capacity for over two hold times:
        # keepalives lost to the flood would expire the session in the window.
        capacity = pod.expected_capacity_mpps() * 1e6
        population = uniform_population(100, tenants=10)
        CbrSource(
            sim, rngs.stream("flood"), pod.ingress, population,
            rate_pps=int(capacity * 3),
        )
        sim.run_until(1 * SECOND + 2 * hold_time_s * SECOND + 500 * MS)
        drops = pod.counters.get("rx_queue_drops") + pod.counters.get(
            "reorder_fifo_drops"
        )
        assert drops > 1000
        assert session.state is BgpState.ESTABLISHED

    def test_each_message_rides_one_66_byte_protocol_packet(self):
        sim, rngs, pod = make_pod()
        control = PodControlPlane(pod)
        delivered = []
        control._handlers[BFD_PORT] = delivered.append
        injected = []
        ingress = pod.ingress
        pod.ingress = lambda packet: (injected.append(packet), ingress(packet))
        probe = BfdPacket(BfdState.DOWN, 3, 1, 0)
        control._inject(BFD_PORT, probe)
        sim.run_until(1 * MS)
        assert delivered == [probe] and delivered[0] is probe
        assert [(p.kind, p.size) for p in injected] == [
            (PacketKind.PROTOCOL, PROTOCOL_PACKET_BYTES)
        ]
        assert PROTOCOL_PACKET_BYTES == 66
        assert pod.counters.get("rx_priority") == 1
        assert not control._messages

    def test_bfd_probes_ride_priority_path(self):
        sim, rngs, pod = make_pod()
        control = PodControlPlane(pod)
        downs = []
        remote_holder = {}

        def remote_receive(data):
            remote_holder["session"].receive(data)

        local = control.start_bfd(
            remote_receive, interval_ns=20 * MS,
            on_down=lambda s: downs.append(sim.now),
        )
        remote = BfdSession(
            sim, "remote",
            lambda data: sim.schedule(1 * MS, local.receive, data),
            interval_ns=20 * MS,
        )
        remote_holder["session"] = remote
        sim.run_until(500 * MS)
        assert local.state is BfdState.UP
        assert remote.state is BfdState.UP
        assert not downs
        assert pod.counters.get("rx_priority") > 10
