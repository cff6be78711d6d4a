"""Dual BGP proxy failover (§5 deployment) and PCIe pipeline accounting."""

import pytest

from repro.bgp.fsm import establish_pair
from repro.bgp.proxy import BgpProxy
from repro.bgp.speaker import BgpSpeaker
from repro.bgp.switch import UplinkSwitch
from repro.core.gateway import AlbatrossServer
from repro.core.pcie import PcieLinkModel
from repro.core.pktdir import DeliveryPath, PktDirRule
from repro.packet.packet import PacketKind
from repro.scenarios import PodSpec
from repro.sim import MS, RngRegistry, SECOND, Simulator
from repro.workloads.generators import CbrSource, uniform_population


class TestDualProxyDeployment:
    """'For deployment, we adopt a dual BGP proxy setup per server to
    enhance robustness.'  Pods peer with both proxies; either keeps the
    switch's routes alive if the other dies."""

    def _setup(self, pods=2):
        sim = Simulator()
        switch = UplinkSwitch(sim, "switch")
        proxies = []
        for index in range(2):
            proxy = BgpProxy(
                sim,
                f"proxy{index}",
                65100,
                0x0A000100 + index,
                switch_peer_name="switch",
                router_ip=0x0A000100 + index,
            )
            establish_pair(sim, proxy, switch, hold_time_s=9)
            proxies.append(proxy)
        pod_speakers = []
        for index in range(pods):
            pod = BgpSpeaker(sim, f"pod{index}", 65100, 0x0A000200 + index)
            for proxy in proxies:
                establish_pair(sim, pod, proxy, hold_time_s=9)
            pod_speakers.append(pod)
        sim.run_until(1 * SECOND)
        return sim, switch, proxies, pod_speakers

    def test_switch_sees_two_peers(self):
        _, switch, _, _ = self._setup()
        assert switch.peer_count == 2

    def test_routes_via_both_proxies(self):
        sim, switch, _, pods = self._setup()
        pods[0].advertise(0x0A640000, 32)
        sim.run_until(2 * SECOND)
        holders = set(switch.rib[(0x0A640000, 32)])
        assert holders == {"proxy0", "proxy1"}

    def test_proxy_death_keeps_routes_reachable(self):
        sim, switch, proxies, pods = self._setup()
        pods[0].advertise(0x0A640000, 32)
        sim.run_until(2 * SECOND)
        proxies[0].sessions["switch"].stop("proxy_crash")
        sim.run_until(3 * SECOND)
        assert switch.knows_route(0x0A640000, 32)
        holders = set(switch.rib[(0x0A640000, 32)])
        assert holders == {"proxy1"}


class TestPciePipelineAccounting:
    def _run(self, header_only, size=4000):
        sim = Simulator()
        rngs = RngRegistry(seed=47)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(PodSpec(name="gw", data_cores=2))
        if header_only:
            # Header-payload split is a pkt_dir rule (§3.2): the pod asks
            # for its data traffic header-only.
            pod.nic.pkt_dir.add_rule(PktDirRule(
                DeliveryPath.PLB, kind=PacketKind.DATA, header_only=True
            ))
        link = PcieLinkModel()
        pod.nic.pcie_link = link
        population = uniform_population(20, tenants=4)
        CbrSource(
            sim, rngs.stream("t"), pod.ingress, population,
            rate_pps=100_000, size=size,
        )
        sim.run_until(10 * MS)
        return pod, link

    def test_bytes_accounted_both_directions(self):
        pod, link = self._run(header_only=False)
        # RX + TX crossings for each forwarded packet.
        assert link.packets == pytest.approx(2 * pod.transmitted(), abs=10)

    def test_header_split_reduces_pcie_bytes(self):
        """Appendix A, end-to-end: split mode moves far fewer bytes over
        PCIe for the same forwarded traffic."""
        _, full_link = self._run(header_only=False)
        _, split_link = self._run(header_only=True)
        per_packet_full = full_link.bytes_transferred / full_link.packets
        per_packet_split = split_link.bytes_transferred / split_link.packets
        assert per_packet_split < per_packet_full / 10

    def test_split_packets_still_delivered_in_order(self):
        pod, _ = self._run(header_only=True)
        assert pod.transmitted() > 500
        assert pod.reorder_stats.disorder_rate() == 0.0
