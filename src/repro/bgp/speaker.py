"""A BGP speaker: local routes, peer sessions, RIB.

GW pods advertise their VIP prefixes; the uplink switch (also a speaker)
installs them.  eBGP sessions prepend the local ASN to AS_PATH; iBGP
sessions (pod <-> proxy) carry LOCAL_PREF instead.
"""

from repro.bgp import messages
from repro.bgp.fsm import BgpState


class RouteEntry:
    """One RIB entry: prefix learned from a peer."""

    __slots__ = ("prefix", "length", "next_hop", "as_path", "peer_name", "local_pref")

    def __init__(self, prefix, length, next_hop, as_path, peer_name, local_pref=None):
        self.prefix = prefix
        self.length = length
        self.next_hop = next_hop
        self.as_path = list(as_path)
        self.peer_name = peer_name
        self.local_pref = local_pref

    def key(self):
        return (self.prefix, self.length)

    def __repr__(self):
        return (
            f"RouteEntry(0x{self.prefix:08x}/{self.length} via "
            f"0x{self.next_hop:08x} from {self.peer_name})"
        )


class BgpSpeaker:
    """BGP control plane of one node (pod, proxy, or switch).

    Parameters:
        sim: the simulator.
        name: unique name used as peer identity.
        asn: autonomous system number.
        bgp_id: 32-bit router id.
        router_ip: next-hop used for self-originated announcements.
    """

    def __init__(self, sim, name, asn, bgp_id, router_ip=0x0A000001):
        self.sim = sim
        self.name = name
        self.asn = asn
        self.bgp_id = bgp_id
        self.router_ip = router_ip
        self.sessions = {}       # peer_name -> BgpSession
        self.local_routes = {}   # (prefix, length) -> next_hop
        self.rib = {}            # (prefix, length) -> {peer_name: RouteEntry}
        self.session_up_count = 0
        self.session_down_count = 0
        self.route_change_log = []

    # -- session management ------------------------------------------------

    def register_session(self, session):
        self.sessions[session.peer_name] = session

    def established_sessions(self):
        return [
            session
            for session in self.sessions.values()
            if session.state is BgpState.ESTABLISHED
        ]

    @property
    def peer_count(self):
        return len(self.sessions)

    # -- route origination -----------------------------------------------

    def advertise(self, prefix, length, next_hop=None):
        """Originate a route and send it to all established peers."""
        hop = next_hop if next_hop is not None else self.router_ip
        self.local_routes[(prefix, length)] = hop
        update = self._origination_update(((prefix, length),), hop)
        for session in self.established_sessions():
            session.send_update(update)

    def withdraw(self, prefix, length):
        """Withdraw a locally originated route everywhere."""
        if (prefix, length) not in self.local_routes:
            return
        del self.local_routes[(prefix, length)]
        update = messages.BgpUpdate(withdrawn=((prefix, length),))
        for session in self.established_sessions():
            session.send_update(update)

    def _origination_update(self, prefixes, next_hop):
        return messages.BgpUpdate(
            announced=prefixes,
            next_hop=next_hop,
            as_path=(self.asn,),
            local_pref=100,
        )

    # -- FSM callbacks -----------------------------------------------------

    def on_session_up(self, session):
        """Full-table advertisement to a freshly established peer."""
        self.session_up_count += 1
        for (prefix, length), next_hop in self.local_routes.items():
            session.send_update(self._origination_update(((prefix, length),), next_hop))

    def on_session_down(self, session, reason):
        """Flush everything learned from the dead peer."""
        self.session_down_count += 1
        for key in list(self.rib):
            peers = self.rib[key]
            if session.peer_name in peers:
                del peers[session.peer_name]
                self.route_change_log.append(
                    (self.sim.now, "flush", key, session.peer_name)
                )
                if not peers:
                    del self.rib[key]

    def on_update(self, session, update):
        for prefix, length in update.withdrawn:
            peers = self.rib.get((prefix, length), {})
            if session.peer_name in peers:
                del peers[session.peer_name]
                if not peers:
                    self.rib.pop((prefix, length), None)
                self.route_change_log.append(
                    (self.sim.now, "withdraw", (prefix, length), session.peer_name)
                )
        for prefix, length in update.announced:
            entry = RouteEntry(
                prefix,
                length,
                update.next_hop,
                update.as_path,
                session.peer_name,
                update.local_pref,
            )
            self.rib.setdefault((prefix, length), {})[session.peer_name] = entry
            self.route_change_log.append(
                (self.sim.now, "announce", (prefix, length), session.peer_name)
            )

    # -- RIB queries --------------------------------------------------------

    def best_route(self, prefix, length):
        """Best path: highest LOCAL_PREF, then shortest AS_PATH."""
        peers = self.rib.get((prefix, length))
        if not peers:
            return None
        return max(
            peers.values(),
            key=lambda e: (
                e.local_pref if e.local_pref is not None else 100,
                -len(e.as_path),
            ),
        )

    def knows_route(self, prefix, length):
        return (prefix, length) in self.rib or (prefix, length) in self.local_routes

    def route_count(self):
        return len(self.rib)
