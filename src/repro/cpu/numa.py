"""NUMA topology and the two NUMA effects the paper measured (§7).

1. **Cross-NUMA placement** (Fig. 16): putting a pod's cores and memory on
   different nodes adds remote-memory latency and coherence overhead.  We
   model it as a multiplicative service-time penalty: 14% for the
   lookup-heavy VPC-VPC service, 3% with no network service (pure compute).

2. **Automatic NUMA balancing** (Fig. 17): with ``numa_balancing`` enabled,
   the kernel periodically unmaps pages to sample access locality.  For a
   pinned, latency-sensitive pod this only produces stalls.  The
   :class:`NumaBalancer` injects those stalls into cores; experiments show
   the resulting latency bursts at 90% load vanish when it is disabled.
"""

from repro.controlplane.snapshot import Stateful


class NumaNode:
    """One socket: cores, local memory, and a shared L3."""

    def __init__(self, node_id, core_count=48, memory_gb=512, l3_cache=None):
        self.node_id = node_id
        self.core_count = core_count
        self.memory_gb = memory_gb
        self.l3_cache = l3_cache
        self.core_ids = []  # populated by NumaTopology

    def __repr__(self):
        return f"<NumaNode {self.node_id}: {self.core_count} cores, {self.memory_gb} GB>"


class NumaTopology:
    """Dual-socket Albatross server topology (2 x 48 cores, 512 GB each)."""

    # Measured degradation when cores and memory live on different nodes:
    # -14% throughput for a lookup-heavy service, -3% for pure compute.
    # Stored as service-time multipliers (1 / (1 - degradation)).
    CROSS_NUMA_SERVICE_PENALTY = 1.0 / 0.86   # lookup-heavy gateway service
    CROSS_NUMA_COMPUTE_PENALTY = 1.0 / 0.97   # no network service

    def __init__(self, nodes=2, cores_per_node=48, memory_gb_per_node=512):
        if nodes <= 0 or cores_per_node <= 0:
            raise ValueError("nodes and cores_per_node must be positive")
        self.nodes = []
        next_core = 0
        for node_id in range(nodes):
            node = NumaNode(node_id, cores_per_node, memory_gb_per_node)
            node.core_ids = list(range(next_core, next_core + cores_per_node))
            next_core += cores_per_node
            self.nodes.append(node)

    def speed_factor(self, core_node, memory_node, lookup_heavy=True):
        """Service-time multiplier for a core/memory placement."""
        if core_node == memory_node:
            return 1.0
        if lookup_heavy:
            return self.CROSS_NUMA_SERVICE_PENALTY
        return self.CROSS_NUMA_COMPUTE_PENALTY


class NumaBalancer(Stateful):
    """Kernel automatic NUMA balancing, reduced to its observable effect.

    Every ``scan_period_ns`` the kernel samples a pinned pod's pages; the
    ensuing page unmaps + faults stall each affected core for
    ``stall_ns``.  Stalls only hurt when cores are busy, so the bursts of
    Fig. 17 appear under high load and disappear at low load -- and, of
    course, when ``enabled`` is False: the scan timer is then off for
    the balancer's whole life.
    """

    STATE = ("scans", ("next_scan", "_event"))
    DERIVED = {"rng": "a registry stream: the RngRegistry snapshot carries its position"}

    def __init__(
        self,
        sim,
        cores,
        enabled=True,
        scan_period_ns=60_000_000,   # 60 ms between scan rounds
        stall_ns=400_000,            # 400 us of faults per affected core
        cores_affected_fraction=0.25,
        rng=None,
    ):
        self.sim = sim
        self.cores = list(cores)
        self.enabled = enabled
        self.scan_period_ns = scan_period_ns
        self.stall_ns = stall_ns
        self.cores_affected_fraction = cores_affected_fraction
        self.rng = rng
        self.scans = 0
        self._event = (sim.schedule(scan_period_ns, self._scan) if enabled
                       else sim.idle(self._scan))

    def _scan(self):
        self.scans += 1
        affected = max(1, int(len(self.cores) * self.cores_affected_fraction))
        if self.rng is not None:
            victims = self.rng.sample(self.cores, affected)
        else:
            victims = self.cores[:affected]
        for core in victims:
            core.inject_stall(self.stall_ns)
        self.sim.rearm(self._event, self.scan_period_ns)
