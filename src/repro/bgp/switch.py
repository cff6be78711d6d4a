"""Uplink switch control-plane model (§5).

The switch is a BGP speaker with a weak control-plane CPU: up to
``SAFE_PEER_THRESHOLD`` (64) peers it converges quickly after a restart;
beyond it, convergence degrades sharply -- the paper saw "up to tens of
minutes" in abnormal situations.  With 32 Albatross servers per switch,
that limit allows only 2 directly-peering GW pods per server; the BGP
proxy removes the constraint.
"""

from repro.bgp.speaker import BgpSpeaker
from repro.sim.units import SECOND

SAFE_PEER_THRESHOLD = 64


class UplinkSwitch(BgpSpeaker):
    """A ToR/spine switch terminating gateway BGP sessions."""

    def __init__(self, sim, name, asn=65000, bgp_id=0x0A00FF01, **kwargs):
        super().__init__(sim, name, asn, bgp_id, **kwargs)
        self.restarts = 0

    # -- control-plane capacity model -------------------------------------

    @staticmethod
    def convergence_time_ns(peer_count):
        """Route-convergence time after a restart, as a function of peers.

        Calibrated to the paper's observations: a few seconds within the
        safe threshold, tens of minutes when the threshold is blown past
        (each excess peer adds quadratic work on the control CPU).
        """
        base = 2 * SECOND + peer_count * (SECOND // 10)
        if peer_count <= SAFE_PEER_THRESHOLD:
            return base
        excess = peer_count - SAFE_PEER_THRESHOLD
        return base + excess * excess * (3 * SECOND // 10)

    def restart(self):
        """Abnormal restart: drop everything, relearn after convergence.

        Returns the modelled convergence time (ns).  Session teardown is
        driven through the normal FSM; route reconvergence completes once
        peers re-establish and re-advertise, gated on the control-plane
        model's convergence time.
        """
        self.restarts += 1
        convergence = self.convergence_time_ns(self.peer_count)
        for session in list(self.sessions.values()):
            session.stop("switch_restart")
        self.rib.clear()
        return convergence


def direct_peering_count(servers, pods_per_server):
    """BGP peers a switch carries when every pod peers directly (Fig. 7 left)."""
    return servers * pods_per_server


def proxied_peering_count(servers, proxies_per_server=1):
    """Peers with the BGP proxy deployed (Fig. 7 right)."""
    return servers * proxies_per_server
