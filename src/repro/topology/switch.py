"""The AZ uplink switch (ECMP across servers) and in-server pod dispatch.

Both stages are pure synchronous forwarders: they pick a destination
with a seeded flow hash (:func:`~repro.packet.hashing.crc32_flow_hash`)
and call its sink in the same event.  No state here schedules simulator
events, so per-flow ordering across the AZ follows directly from the
workload sources' per-flow emission order, and a snapshot carries only
the counters and the uplink's pin table.
"""

from repro.controlplane.snapshot import Stateful, Table
from repro.metrics.counters import CounterSet
from repro.packet.flows import FlowMemo
from repro.packet.hashing import crc32_flow_hash


class EcmpUplink(Stateful):
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

    __slots__ = ("members", "hash_seed", "pin_flows", "counters", "_affinity",
                 "_member_keys")
    STATE = ("counters", ("affinity", "_affinity"))

    def __init__(self, members, hash_seed=101, pin_flows=True):
        members = tuple(members)
        if not members:
            raise ValueError("an ECMP uplink needs at least one server")
        self.members = members
        self.hash_seed = hash_seed
        self.pin_flows = pin_flows
        self.counters = CounterSet()
        self._affinity = Table()  # FlowKey -> member index
        self._member_keys = tuple(f"to_server.{name}" for name, _ in members)

    def forward(self, packet):
        """Deliver ``packet`` to its flow's server, synchronously.

        Counters are bumped on ``counters.counts`` in place, in the order
        ``incr`` would first create them.
        """
        flow = packet.flow
        counts = self.counters.counts
        if self.pin_flows:
            index = self._affinity.get(flow)
            if index is None:
                index = crc32_flow_hash(flow, self.hash_seed) % len(self.members)
                self._affinity[flow] = index
                pinned = "affinity_pins"
            else:
                pinned = "affinity_hits"
            try:
                counts[pinned] += 1
            except KeyError:
                counts[pinned] = 1
        else:
            index = crc32_flow_hash(flow, self.hash_seed) % len(self.members)
        _, sink = self.members[index]
        member_key = self._member_keys[index]
        try:
            counts["forwarded"] += 1
        except KeyError:
            counts["forwarded"] = 1
        try:
            counts[member_key] += 1
        except KeyError:
            counts[member_key] = 1
        sink(packet)

    @property
    def pinned_flows(self):
        """Number of flows currently pinned in the affinity table."""
        return len(self._affinity)


class FlowPodDispatch(Stateful):
    """In-server pod selector: one seeded flow hash over the pod list.

    Parameters:
        server_name: the hosting server (labels counters and reports).
        sinks: ordered ``[(pod_name, sink)]``; ``sink(packet)`` is
            normally ``pod.ingress`` but may be a migration controller's
            ``route`` indirection for a pod that migrates mid-run.
        hash_seed: pod-pick hash seed (distinct from the uplink's).

    Counters: ``dispatched`` and ``to_pod.<name>``.

    The pod a flow hashes to is memoised in a bounded
    :class:`~repro.packet.flows.FlowMemo`: it is a pure function of the
    flow, the seed and the pod count, all fixed for the dispatcher's life.
    A one-pod server has nothing to pick: every flow goes to pod 0,
    unhashed, and no memo is kept.
    """

    __slots__ = ("server_name", "sinks", "hash_seed", "counters", "_sink_keys",
                 "_pod_of")
    STATE = ("counters",)
    DERIVED = {
        "_pod_of": "memo of a flow's pod index, a pure function of the flow, the "
                   "seed and the pod count",
    }

    def __init__(self, server_name, sinks, hash_seed=211):
        sinks = tuple(sinks)
        if not sinks:
            raise ValueError(f"server {server_name!r} has no pods to dispatch to")
        self.server_name = server_name
        self.sinks = sinks
        self.hash_seed = hash_seed
        self.counters = CounterSet()
        self._sink_keys = tuple(f"to_pod.{name}" for name, _ in sinks)
        # FlowKey -> sink index; a lone pod needs neither hash nor memo.
        self._pod_of = None if len(sinks) == 1 else FlowMemo(
            lambda flow: crc32_flow_hash(flow, hash_seed) % len(sinks))

    def forward(self, packet):
        pod_of = self._pod_of
        index = 0 if pod_of is None else pod_of[packet.flow]
        _, sink = self.sinks[index]
        counts = self.counters.counts
        sink_key = self._sink_keys[index]
        try:
            counts["dispatched"] += 1
        except KeyError:
            counts["dispatched"] = 1
        try:
            counts[sink_key] += 1
        except KeyError:
            counts[sink_key] = 1
        sink(packet)
