"""Dual BGP proxy failover (§5 deployment)."""

from repro.bgp.fsm import establish_pair
from repro.bgp.proxy import BgpProxy
from repro.bgp.speaker import BgpSpeaker
from repro.bgp.switch import UplinkSwitch
from repro.sim import SECOND, Simulator


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
