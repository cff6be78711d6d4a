"""The AZ uplink switch (ECMP across servers) and in-server pod dispatch.

Both stages are pure synchronous forwarders: they pick a destination
with a seeded flow hash (:func:`~repro.packet.hashing.crc32_flow_hash`)
and call its sink in the same event.  No state here schedules simulator
events, so per-flow ordering across the AZ follows directly from the
workload sources' per-flow emission order.
"""

from repro.metrics.counters import CounterSet
from repro.packet.hashing import crc32_flow_hash


class EcmpUplink:
    """ECMP uplink switch spraying flows across gateway servers.

    Parameters:
        members: ordered ``[(server_name, sink)]`` -- one entry per
            server; ``sink(packet)`` is the server's ingress (the DPU
            tier when armed, else its pod dispatch).
        hash_seed: seed for the ECMP flow hash; independent from the
            in-server pod hash so collisions are uncorrelated.
        pin_flows: when True (the default), the first packet of a flow
            pins it to the hashed server in an exact-match affinity
            table; later packets follow the pin.  With a static member
            set the pin agrees with the hash, but the table is what
            keeps sessions on their server through scale-out/in.

    Counters: ``forwarded``, ``affinity_pins`` (first packet of a flow),
    ``affinity_hits`` (pinned lookups) and ``to_server.<name>``.
    """

    __slots__ = ("members", "hash_seed", "pin_flows", "counters", "_affinity")

    def __init__(self, members, hash_seed=101, pin_flows=True):
        members = tuple(members)
        if not members:
            raise ValueError("an ECMP uplink needs at least one server")
        self.members = members
        self.hash_seed = hash_seed
        self.pin_flows = pin_flows
        self.counters = CounterSet()
        self._affinity = {}       # FlowKey -> member index

    def server_for(self, flow):
        """The member index ``flow`` resolves to (pin first, then hash)."""
        if self.pin_flows:
            index = self._affinity.get(flow)
            if index is not None:
                return index
        return crc32_flow_hash(flow, self.hash_seed) % len(self.members)

    def forward(self, packet):
        """Deliver ``packet`` to its flow's server, synchronously."""
        flow = packet.flow
        if self.pin_flows:
            index = self._affinity.get(flow)
            if index is None:
                index = crc32_flow_hash(flow, self.hash_seed) % len(self.members)
                self._affinity[flow] = index
                self.counters.incr("affinity_pins")
            else:
                self.counters.incr("affinity_hits")
        else:
            index = crc32_flow_hash(flow, self.hash_seed) % len(self.members)
        name, sink = self.members[index]
        self.counters.incr("forwarded")
        self.counters.incr(f"to_server.{name}")
        sink(packet)

    @property
    def pinned_flows(self):
        """Number of flows currently pinned in the affinity table."""
        return len(self._affinity)


class FlowPodDispatch:
    """In-server pod selector: one seeded flow hash over the pod list.

    Parameters:
        server_name: the hosting server (labels counters and reports).
        sinks: ordered ``[(pod_name, sink)]``; ``sink(packet)`` is
            normally ``pod.ingress`` but may be a migration controller's
            ``route`` indirection for a pod that migrates mid-run.
        hash_seed: pod-pick hash seed (distinct from the uplink's).

    Counters: ``dispatched`` and ``to_pod.<name>``.
    """

    __slots__ = ("server_name", "sinks", "hash_seed", "counters")

    def __init__(self, server_name, sinks, hash_seed=211):
        sinks = tuple(sinks)
        if not sinks:
            raise ValueError(f"server {server_name!r} has no pods to dispatch to")
        self.server_name = server_name
        self.sinks = sinks
        self.hash_seed = hash_seed
        self.counters = CounterSet()

    def forward(self, packet):
        index = crc32_flow_hash(packet.flow, self.hash_seed) % len(self.sinks)
        name, sink = self.sinks[index]
        self.counters.incr("dispatched")
        self.counters.incr(f"to_pod.{name}")
        sink(packet)
