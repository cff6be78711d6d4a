"""The BGP proxy pod (§5, Fig. 7 right).

Instead of every GW pod holding an eBGP session to the uplink switch, a
per-server proxy pod terminates the pods' iBGP sessions and maintains the
single eBGP session (two, in the dual-proxy deployment) to the switch.
Routes learned from pods are re-advertised to the switch with the proxy
as AS hop; withdrawals propagate the same way.  The switch's peer count
drops from ``pods x servers`` to ``proxies x servers``.
"""

from repro.bgp import messages
from repro.bgp.speaker import BgpSpeaker


class BgpProxy(BgpSpeaker):
    """Per-server BGP proxy: iBGP to the pods, eBGP to the switch."""

    def __init__(self, sim, name, asn, bgp_id, switch_peer_name=None, **kwargs):
        super().__init__(sim, name, asn, bgp_id, **kwargs)
        self.switch_peer_name = switch_peer_name
        self.reexported = 0

    def _switch_sessions(self):
        return [
            session
            for session in self.established_sessions()
            if self.switch_peer_name is None
            or session.peer_name == self.switch_peer_name
        ]

    def _pod_session(self, session):
        return (
            self.switch_peer_name is not None
            and session.peer_name != self.switch_peer_name
        )

    def on_update(self, session, update):
        """Install into the RIB, then re-export pod routes to the switch."""
        super().on_update(session, update)
        if not self._pod_session(session):
            return  # routes from the switch are not reflected back
        for prefix, length in update.announced:
            export = messages.BgpUpdate(
                announced=((prefix, length),),
                # eBGP export rewrites next-hop to the proxy and prepends
                # the proxy's ASN.
                next_hop=self.router_ip,
                as_path=(self.asn,) + update.as_path,
            )
            for switch_session in self._switch_sessions():
                switch_session.send_update(export)
                self.reexported += 1
        for prefix, length in update.withdrawn:
            still_reachable = (prefix, length) in self.rib
            if still_reachable:
                continue  # another pod still advertises it
            export = messages.BgpUpdate(withdrawn=((prefix, length),))
            for switch_session in self._switch_sessions():
                switch_session.send_update(export)

    def on_session_down(self, session, reason):
        """A pod died: withdraw its routes from the switch."""
        dead_keys = [
            key
            for key, peers in self.rib.items()
            if session.peer_name in peers and len(peers) == 1
        ]
        super().on_session_down(session, reason)
        if not self._pod_session(session):
            return
        for prefix, length in dead_keys:
            export = messages.BgpUpdate(withdrawn=((prefix, length),))
            for switch_session in self._switch_sessions():
                switch_session.send_update(export)
