"""GW pod runtime and the Albatross server: the library's top-level API.

A :class:`GwPodRuntime` is one containerized gateway: data cores running a
service chain, ctrl cores (modelled via the priority path + BGP speaker),
and a slice of the FPGA NIC pipeline.  An :class:`AlbatrossServer` hosts
several pods on a dual-NUMA machine, placing each pod's cores and memory
on one node (the §7 lesson) unless an experiment asks for cross-NUMA
placement.

A pod is described once, by a :class:`~repro.scenarios.PodSpec`;
:meth:`AlbatrossServer.add_pod` is where that description becomes live
objects.  Quick example::

    from repro.sim import Simulator, RngRegistry, SECOND
    from repro.core import AlbatrossServer
    from repro.scenarios import PodSpec

    sim = Simulator()
    server = AlbatrossServer(sim, RngRegistry(seed=1))
    pod = server.add_pod(PodSpec(name="vpc-gw", data_cores=8))
    # feed pod.ingress(packet) from a workload, then sim.run_until(...)
"""

from repro.controlplane.snapshot import Stateful
from repro.core.meta import MetaPlacement, placement_throughput_factor
from repro.core.nic import NicPipeline
from repro.core.plb.reorder import ReorderQueueConfig, TxOutcome
from repro.core.ratelimit import TwoStageRateLimiter
from repro.cpu.cache import PAPER_L3_BYTES, SharedL3Cache
from repro.cpu.core import CpuCore, Verdict
from repro.cpu.numa import NumaTopology
from repro.cpu.service import ServiceChain, scaled_service, standard_services
from repro.metrics.histogram import LatencyHistogram
from repro.sim.units import SECOND

# Egress outcome -> report key.  ``Enum.value`` is a Python-level descriptor
# call, paid per packet; the NIC's two string outcomes are their own keys.
_OUTCOME_KEYS = {outcome: outcome.value for outcome in TxOutcome}
_OUTCOME_KEYS.update({"rss": "rss", "fpga_fast_path": "fpga_fast_path"})

# The verdicts ``_verdict`` returns per packet, bound once (a member loaded
# through its Enum class goes through ``EnumType.__getattr__``'s slot).
_FORWARD = Verdict.FORWARD
_DROP_ACL = Verdict.DROP_ACL
_DROP_SILENT = Verdict.DROP_SILENT


def default_reorder_queue_count(data_cores):
    """1-8 reorder queues, proportional to the pod's data cores (§4.1).

    A 44-data-core production pod gets 4 queues; a 20-core pod gets 2.
    """
    return max(1, min(8, data_cores // 10))


class GwPodRuntime(Stateful):
    """A running GW pod: cores + NIC pipeline slice + metrics.

    Built by :meth:`AlbatrossServer.add_pod`, which resolves ``chain``,
    ``reorder``, ``speed_factor`` and ``rate_limiter`` from ``spec``.
    A data packet enters through :attr:`ingress`, the NIC's
    :meth:`~repro.core.nic.NicPipeline.ingress` itself, and leaves through
    exactly one of two exits, :meth:`_on_egress` (the wire) or
    :meth:`_on_drop`; both call the deployment's exit subscribers (see
    :class:`AlbatrossServer`).

    Its snapshot covers every stateful component and rng stream in the
    pod.  It restores into a freshly built pod of the same shape (core
    count, reorder queue count); NUMA placement is free to differ.
    """

    STATE = (
        "name", "crashed", "outcomes", ("latency", "latency_histogram"), "rng",
        ("cores", "core_stats"), "nic",
    )

    def __init__(self, sim, spec, core_ids, rng, chain, reorder, speed_factor,
                 rate_limiter, subscribers):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.rng = rng
        self.chain = chain
        self.subscribers = subscribers
        self.latency_histogram = LatencyHistogram()
        self.outcomes = {}
        self._started_ns = sim.now
        # ``_verdict``'s two thresholds, the sums it compares against.
        self._acl_below = spec.acl_drop_probability
        self._drop_below = spec.acl_drop_probability + spec.silent_drop_probability

        self.cores = []
        for core_id in core_ids[: spec.data_cores]:
            core = CpuCore(
                sim,
                core_id,
                chain,
                None,  # the NIC's completion callback, once it exists below
                verdict_fn=self._verdict,
                rx_capacity=spec.rx_capacity,
                speed_factor=speed_factor,
            )
            self.cores.append(core)

        self.nic = NicPipeline(
            sim, self.cores, reorder, self._on_egress, mode=spec.mode,
            rate_limiter=rate_limiter, drop_flag_enabled=spec.drop_flag_enabled,
            drop_fn=self._on_drop,
        )
        for core in self.cores:
            core.completion_fn = self.nic.on_cpu_completion
        # Feed a packet into the pod's NIC slice: no pod-level frame, the
        # crash blackhole is the NIC's first check.
        self.ingress = self.nic.ingress

    # -- behaviour hooks -------------------------------------------------

    def _verdict(self, packet):
        roll = self.rng.random()
        if roll < self._acl_below:
            return _DROP_ACL
        if roll < self._drop_below:
            return _DROP_SILENT
        return _FORWARD

    def _on_egress(self, packet, outcome):
        # A packet's one latency record; NIC ingress and _transmit stamped it.
        self.latency_histogram.record(packet.departure_ns - packet.arrival_ns)
        try:
            key = _OUTCOME_KEYS[outcome]
        except KeyError:
            try:
                key = outcome.value
            except AttributeError:
                key = str(outcome)
        outcomes = self.outcomes
        try:
            outcomes[key] += 1
        except KeyError:
            outcomes[key] = 1
        for subscriber in self.subscribers:
            subscriber(packet, self.spec.name, outcome)

    def _on_drop(self, packet):
        """The pod's drop exit; ``packet.drop_reason`` already says why."""
        for subscriber in self.subscribers:
            subscriber(packet, self.spec.name, None)

    # -- public API --------------------------------------------------------

    @property
    def crashed(self):
        """True while the container is down (its ingress blackholes)."""
        return self.nic.pod_crashed

    @crashed.setter
    def crashed(self, crashed):
        self.nic.pod_crashed = crashed

    @property
    def core_stats(self):
        """Each data core's :class:`~repro.cpu.core.CoreStats`, in core order."""
        return [core.stats for core in self.cores]

    def crash(self):
        """Fault injection: the container dies mid-flight.

        Every data core goes offline (in-queue packets are lost with the
        container) and subsequent ingress blackholes.  Recovery is the
        container scheduler's job: reschedule a replacement pod and let
        BGP/BFD converge -- see ``repro.faults``.
        """
        self.nic.pod_crashed = True
        for core in self.cores:
            core.fail()

    def recover(self):
        """Bring the (restarted) pod back into service."""
        self.nic.pod_crashed = False
        for core in self.cores:
            core.recover()

    # -- checkpoint / restore (live migration, repro.controlplane) ---------

    def in_flight(self):
        """Data-plane packets currently inside the pod (counter-based)."""
        return self.nic.in_flight()

    def quiescent(self):
        """True when the pod holds no packet state anywhere.

        This is the drain-complete predicate for live migration: no
        packet between ingress and egress, every core idle with an empty
        RX ring, every reorder queue drained and the protocol priority
        path quiet.  Only a quiescent pod can be checkpointed.
        """
        if self.nic.in_flight() != 0:
            return False
        for core in self.cores:
            if core.busy or len(core.rx_queue) != 0:
                return False
        reorder = self.nic.reorder
        for ordq in range(reorder.queue_count):
            if reorder.occupancy(ordq) != 0:
                return False
        return self.nic.priority.idle

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint` into this (freshly built) pod."""
        if len(snapshot["cores"]) != len(self.cores):
            raise ValueError(
                f"checkpoint has {len(snapshot['cores'])} cores, "
                f"pod has {len(self.cores)}"
            )
        if snapshot["name"] != self.spec.name:
            raise ValueError(
                f"checkpoint is for pod {snapshot['name']!r}, cannot "
                f"restore into {self.spec.name!r}"
            )
        super().restore(snapshot)

    # The older name, which benchmarks/perf/probes.py times.
    restore_state = restore

    @property
    def counters(self):
        return self.nic.counters

    @property
    def reorder_stats(self):
        return self.nic.reorder.stats

    def transmitted(self):
        return self.nic.counters.get("tx_packets")

    def throughput_mpps(self, window_ns=None):
        """Achieved packet rate over the pod's lifetime (or a window)."""
        elapsed = window_ns if window_ns is not None else self.sim.now - self._started_ns
        if elapsed <= 0:
            return 0.0
        return self.transmitted() * 1e3 / elapsed

    def core_utilizations(self, window_ns):
        return [core.stats.utilization(window_ns) for core in self.cores]

    def expected_capacity_mpps(self):
        """Nominal saturated capacity: data cores x per-core rate."""
        return self.spec.data_cores * self.chain.per_core_mpps()


class AlbatrossServer:
    """A dual-NUMA Albatross server hosting containerized gateways.

    Parameters:
        sim: the simulator.
        rngs: an :class:`~repro.sim.RngRegistry`.
        topology: NUMA topology (defaults to 2 x 48 cores).
        cache_mode: ``"analytic"`` (expected hit rate; fast) or
            ``"simulated"`` (shared LRU L3 per node; Fig. 4/5 mode).
        l3_bytes: per-node L3 capacity for simulated mode.  Every pod's
            table regions shrink by the same factor against the paper's
            200 MB L3, so a scaled-down L3 keeps the paper's
            working-set-to-cache ratio (Fig. 4/5).
        subscribers: the deployment's exit-subscriber list (servers of
            one AZ share one); defaults to a fresh empty list.

    Every pod :meth:`add_pod` creates is handed ``subscribers`` -- a pod
    rebuilt by a migration included -- and calls each entry as
    ``fn(packet, where, outcome)`` for every data packet that leaves it:
    ``where`` is the pod name and ``outcome`` what ``egress_fn`` saw, or
    ``None`` for a drop (``packet.drop_reason`` says why).  Subscribers
    only read: they may not schedule events or draw from the run's rngs.
    """

    POD_READY_SECONDS = 10  # container elasticity (Tab. 6)

    def __init__(self, sim, rngs, topology=None, cache_mode="analytic",
                 l3_bytes=None, subscribers=None):
        self.sim = sim
        self.rngs = rngs
        self.subscribers = subscribers if subscribers is not None else []
        self.topology = topology if topology is not None else NumaTopology()
        self.cache_mode = cache_mode
        self.table_scale = 1.0
        self.pods = {}
        self._free_cores = {
            node.node_id: list(node.core_ids) for node in self.topology.nodes
        }
        self._l3 = {}
        if cache_mode == "simulated":
            capacity = l3_bytes if l3_bytes is not None else PAPER_L3_BYTES
            self.table_scale = capacity / PAPER_L3_BYTES
            for node in self.topology.nodes:
                self._l3[node.node_id] = SharedL3Cache(capacity)
        elif cache_mode != "analytic":
            raise ValueError(f"unknown cache_mode {cache_mode!r}")

    def l3_cache(self, node_id):
        return self._l3.get(node_id)

    def free_cores(self, node_id):
        return len(self._free_cores[node_id])

    def _pick_node(self, numa_node, cores):
        if numa_node is not None:
            if len(self._free_cores[numa_node]) < cores:
                raise ValueError(f"NUMA node {numa_node} lacks {cores} cores")
            return numa_node
        for node_id, free in self._free_cores.items():
            if len(free) >= cores:
                return node_id
        raise ValueError(f"no NUMA node has {cores} free cores")

    def add_pod(self, spec):
        """Build and start the pod a :class:`~repro.scenarios.PodSpec`
        describes; returns its :class:`GwPodRuntime`.

        The one place a pod description becomes live objects: the service
        (``per_core_pps`` selects :func:`~repro.cpu.service.scaled_service`,
        otherwise the named paper service), the two-stage limiter the
        ``limiter_stage*_pps`` fields declare (sampling from stream
        ``limiter.<name>``), the reorder queues (scaled with the data
        cores, :class:`ReorderQueueConfig`'s depth unless declared) and the cores' service-time
        factor for NUMA and meta-header placement.
        """
        if spec.name in self.pods:
            raise ValueError(f"duplicate pod name {spec.name!r}")
        if spec.per_core_pps is not None:
            service = scaled_service(spec.per_core_pps, spec.lookups)
        else:
            services = standard_services()
            if spec.service not in services:
                raise ValueError(
                    f"unknown service {spec.service!r}; choose from {sorted(services)}"
                )
            service = services[spec.service]
        rate_limiter = None
        if spec.limiter_stage1_pps is not None:
            rate_limiter = TwoStageRateLimiter(
                self.rngs.stream(f"limiter.{spec.name}"),
                stage1_rate_pps=spec.limiter_stage1_pps,
                stage2_rate_pps=(
                    spec.limiter_stage2_pps
                    if spec.limiter_stage2_pps is not None
                    else spec.limiter_stage1_pps // 4 or 1
                ),
            )
        depth = {} if spec.reorder_depth is None else {"depth": spec.reorder_depth}
        reorder = ReorderQueueConfig(
            spec.reorder_queues if spec.reorder_queues is not None
            else default_reorder_queue_count(spec.data_cores),
            **depth,
        )
        placement = MetaPlacement(spec.meta_placement or MetaPlacement.TAIL.value)

        total_cores = spec.data_cores + spec.ctrl_cores
        node_id = self._pick_node(spec.numa_node, total_cores)
        core_ids = [self._free_cores[node_id].pop(0) for _ in range(total_cores)]
        memory_node = spec.memory_node if spec.memory_node is not None else node_id
        # Service time inflates for cross-NUMA memory and for the HEAD meta
        # placement's private-room copy (§7); the NIC itself is unaffected.
        speed_factor = self.topology.speed_factor(
            node_id, memory_node, lookup_heavy=True
        ) / placement_throughput_factor(placement)
        chain = ServiceChain(
            service, cache=self._l3.get(memory_node), table_scale=self.table_scale
        )
        pod = GwPodRuntime(
            self.sim,
            spec,
            core_ids,
            self.rngs.stream(f"pod.{spec.name}"),
            chain,
            reorder,
            speed_factor=speed_factor,
            rate_limiter=rate_limiter,
            subscribers=self.subscribers,
        )
        pod.numa_node = node_id
        pod.memory_node = memory_node
        pod.allocated_core_ids = core_ids
        self.pods[spec.name] = pod
        return pod

    def remove_pod(self, name):
        """Tear a pod down and return its cores to the free pool."""
        pod = self.pods.pop(name)
        self._free_cores[pod.numa_node].extend(pod.allocated_core_ids)
        return pod

    def pod_ready_delay_ns(self):
        """Container elasticity: a new pod is serving in ~10 seconds."""
        return self.POD_READY_SECONDS * SECOND
