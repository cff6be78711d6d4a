"""The per-server "DPU" pre-classifier tier.

Gryphon-style hierarchical co-offloading (PAPERS.md): a cheap match
stage in front of each server's NIC/FPGA+CPU pipeline.  Flows installed
in its exact-match table are forwarded entirely in the DPU at a fixed,
low latency; everything else falls through to the host pipeline.  Which
flows deserve a table entry is :class:`~repro.topology.promotion.
HotFlowPromoter`'s call -- this class only owns the table and the data
path.

The fast path is synchronous and terminal: a fast-forwarded packet gets
its arrival/departure stamps here and never reaches a pod, exactly like
hardware offload bypassing the host.  Its latency lands in the tier's
own histogram so reports can compare the two tiers side by side.  It is
the deployment's third packet exit, next to a pod's egress and drop
points (see :class:`~repro.core.gateway.AlbatrossServer`).
"""

from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram

#: The ``outcome`` exit subscribers see for a DPU fast-forward.
DPU_FAST_PATH = "dpu_fast_path"


class DpuPreClassifier:
    """Exact-match hot-flow table fronting one server's pipeline.

    Parameters:
        sim: the simulator (clock source for latency stamps).
        slow_sink: ``sink(packet)`` for table misses -- the server's
            :class:`~repro.topology.switch.FlowPodDispatch`.
        table_capacity: max installed flows; installs beyond it are
            refused (``table_full`` counter).
        fast_latency_ns: fixed DPU forwarding latency.
        promoter: optional observer with ``observe(flow)``; every
            packet (both paths) feeds it so installed flows keep
            registering as hot while they stay hot.
        seed: histogram reservoir seed (determinism discipline).
        name: the hosting server's name.
        subscribers: the deployment's exit subscribers, each called as
            ``fn(packet, name, DPU_FAST_PATH)`` on a fast-forward.

    Counters: ``fast_forwards``, ``slow_forwards``, ``promotions``,
    ``demotions``, ``table_full``.
    """

    __slots__ = ("sim", "slow_sink", "table_capacity", "fast_latency_ns",
                 "promoter", "counters", "latency_histogram", "_table",
                 "name", "subscribers")

    def __init__(self, sim, slow_sink, table_capacity=256,
                 fast_latency_ns=2_000, promoter=None, seed=1, name=None,
                 subscribers=()):
        if table_capacity <= 0:
            raise ValueError("table_capacity must be positive")
        self.sim = sim
        self.slow_sink = slow_sink
        self.table_capacity = table_capacity
        self.fast_latency_ns = fast_latency_ns
        self.promoter = promoter
        self.counters = CounterSet()
        self.latency_histogram = LatencyHistogram(seed=seed)
        self._table = {}          # FlowKey -> install simtime (ns)
        self.name = name
        self.subscribers = subscribers

    # -- data path ---------------------------------------------------------

    def ingress(self, packet):
        """Classify one packet: DPU fast path or host slow path."""
        if self.promoter is not None:
            # Both paths feed the sketch: an installed flow must keep
            # looking hot or the demotion aging would evict it the
            # moment it stopped paying the slow-path toll.
            self.promoter.observe(packet.flow)
        if packet.flow in self._table:
            now = self.sim.now
            packet.arrival_ns = now
            packet.departure_ns = now + self.fast_latency_ns
            self.counters.incr("fast_forwards")
            self.latency_histogram.record(self.fast_latency_ns)
            for subscriber in self.subscribers:
                subscriber(packet, self.name, DPU_FAST_PATH)
            return
        self.counters.incr("slow_forwards")
        self.slow_sink(packet)

    # -- table management (the promoter's API) -----------------------------

    def installed(self, flow):
        return flow in self._table

    def promote(self, flow):
        """Install ``flow``; returns False when already present or full."""
        if flow in self._table:
            return False
        if len(self._table) >= self.table_capacity:
            self.counters.incr("table_full")
            return False
        self._table[flow] = self.sim.now
        self.counters.incr("promotions")
        return True

    def demote(self, flow):
        """Remove ``flow`` from the table; returns False when absent."""
        if self._table.pop(flow, None) is None:
            return False
        self.counters.incr("demotions")
        return True

    @property
    def occupancy(self):
        return len(self._table)
