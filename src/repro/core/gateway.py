"""GW pod runtime and the Albatross server: the library's top-level API.

A :class:`GwPodRuntime` is one containerized gateway: data cores running a
service chain, ctrl cores (modelled via the priority path + BGP speaker),
and a slice of the FPGA NIC pipeline.  An :class:`AlbatrossServer` hosts
several pods on a dual-NUMA machine, placing each pod's cores and memory
on one node (the §7 lesson) unless an experiment asks for cross-NUMA
placement.

Quick example::

    from repro.sim import Simulator, RngRegistry, SECOND
    from repro.core import AlbatrossServer, PodConfig

    sim = Simulator()
    server = AlbatrossServer(sim, RngRegistry(seed=1))
    pod = server.add_pod(PodConfig(name="vpc-gw", data_cores=8))
    # feed pod.ingress(packet) from a workload, then sim.run_until(...)
"""

from dataclasses import dataclass
from typing import Optional

from repro.core.meta import MetaPlacement
from repro.core.nic import NicPipeline, NicPipelineConfig
from repro.core.plb.reorder import ReorderQueueConfig, TxOutcome
from repro.cpu.cache import SharedL3Cache
from repro.cpu.core import CpuCore, Verdict
from repro.cpu.numa import NumaTopology
from repro.cpu.service import MemoryTimings, ServiceChain, standard_services
from repro.metrics.histogram import LatencyHistogram
from repro.sim.rng import rng_state, set_rng_state
from repro.sim.units import SECOND

# Egress outcome -> report key.  ``Enum.value`` is a Python-level descriptor
# call, paid per packet; the NIC's two string outcomes are their own keys.
_OUTCOME_KEYS = {outcome: outcome.value for outcome in TxOutcome}
_OUTCOME_KEYS.update({"rss": "rss", "fpga_fast_path": "fpga_fast_path"})


def default_reorder_queue_count(data_cores):
    """1-8 reorder queues, proportional to the pod's data cores (§4.1).

    A 44-data-core production pod gets 4 queues; a 20-core pod gets 2.
    """
    return max(1, min(8, data_cores // 10))


@dataclass(eq=False)
class PodConfig:
    """Declarative description of one GW pod."""

    name: str
    data_cores: int
    ctrl_cores: int = 2
    service: str = "VPC-Internet"
    mode: str = "plb"
    reorder_queues: Optional[int] = None    # None: scale with data_cores
    reorder_depth: int = 4096
    rate_limiter: object = None
    drop_flag_enabled: bool = True
    header_only: bool = False
    meta_placement: MetaPlacement = MetaPlacement.TAIL
    rx_capacity: int = 1024
    acl_drop_probability: float = 0.0
    silent_drop_probability: float = 0.0
    jitter: object = None
    numa_node: Optional[int] = None
    memory_node: Optional[int] = None
    assumed_hit_rate: float = 0.35
    table_scale: Optional[float] = None
    memory_frequency_mhz: int = 4800
    custom_service: object = None

    def __post_init__(self):
        if self.data_cores < 1:
            raise ValueError("a pod needs at least one data core")
        if self.reorder_queues is None:
            self.reorder_queues = default_reorder_queue_count(self.data_cores)

    @property
    def total_cores(self):
        return self.data_cores + self.ctrl_cores


class GwPodRuntime:
    """A running GW pod: cores + NIC pipeline slice + metrics.

    A data packet leaves the pod through exactly one of two exits,
    :meth:`_on_egress` (the wire) or :meth:`_on_drop`; both call the
    deployment's exit subscribers (see :class:`AlbatrossServer`).
    """

    def __init__(self, sim, config, core_ids, rng, l3_cache=None,
                 numa_factor=1.0, subscribers=()):
        self.sim = sim
        self.config = config
        self.rng = rng
        self.subscribers = subscribers
        self.latency_histogram = LatencyHistogram()
        self.outcomes = {}
        self.crashed = False
        self._started_ns = sim.now

        if config.custom_service is not None:
            service = config.custom_service
        else:
            services = standard_services()
            if config.service not in services:
                raise ValueError(
                    f"unknown service {config.service!r}; choose from {sorted(services)}"
                )
            service = services[config.service]
        timings = MemoryTimings(memory_frequency_mhz=config.memory_frequency_mhz)
        if l3_cache is not None:
            scale = config.table_scale if config.table_scale is not None else 1.0
            # ServiceChain's only mutable state is a bounded memoization
            # of a deterministic per-flow address function; a rebuilt
            # chain re-derives identical entries on demand.
            self.chain = ServiceChain(  # lint: disable=SNAP003(only mutable state is a pure memo cache of a deterministic address function)
                service,
                cache=l3_cache,
                timings=timings,
                table_scale=scale,
            )
        else:
            self.chain = ServiceChain(  # lint: disable=SNAP003(only mutable state is a pure memo cache of a deterministic address function)
                service,
                timings=timings,
                assumed_hit_rate=config.assumed_hit_rate,
            )

        nic_config = NicPipelineConfig(
            mode=config.mode,
            reorder=ReorderQueueConfig(config.reorder_queues, config.reorder_depth),
            rate_limiter=config.rate_limiter,
            drop_flag_enabled=config.drop_flag_enabled,
            header_only=config.header_only,
            meta_placement=config.meta_placement,
        )

        # Service time inflates for cross-NUMA placement; the HEAD
        # meta-placement penalty (33.6% copy cost) is applied after the
        # NIC pipeline computes its throughput factor below.
        speed_factor = numa_factor

        self.cores = []
        for core_id in core_ids[: config.data_cores]:
            # Cores are only checkpointed quiescent (idle, empty RX ring,
            # no pending stall), so their transient scheduling state has
            # nothing to capture; the durable per-core counters live in
            # core.stats, which checkpoint() snapshots below.
            core = CpuCore(  # lint: disable=SNAP003(cores checkpoint quiescent; durable counters live in core.stats, captured by the pod snapshot)
                sim,
                core_id,
                self.chain,
                None,  # the NIC's completion callback, once it exists below
                verdict_fn=self._verdict,
                jitter=config.jitter,
                rx_capacity=config.rx_capacity,
                speed_factor=speed_factor,
            )
            self.cores.append(core)

        self.nic = NicPipeline(
            sim, self.cores, nic_config, self._on_egress,
            protocol_fn=self._on_protocol, drop_fn=self._on_drop,
        )
        for core in self.cores:
            core.completion_fn = self.nic.on_cpu_completion
        # Meta placement penalty applies to CPU processing, not the NIC.
        if self.nic.cpu_throughput_factor != 1.0:
            for core in self.cores:
                core.speed_factor /= self.nic.cpu_throughput_factor
        # Test-facing observability: live Packet objects handed up by the
        # priority path.  Not plain data, and the path is idle whenever a
        # quiescent pod checkpoints; the delivered *count* is captured by
        # the NIC snapshot.
        self.protocol_delivered = []  # lint: disable=SNAP001(observability log of live Packet objects; delivered count is captured by the NIC snapshot)

    # -- behaviour hooks -------------------------------------------------

    def _verdict(self, packet):
        roll = self.rng.random()
        if roll < self.config.acl_drop_probability:
            return Verdict.DROP_ACL
        if roll < self.config.acl_drop_probability + self.config.silent_drop_probability:
            return Verdict.DROP_SILENT
        return Verdict.FORWARD

    def _on_egress(self, packet, outcome):
        arrival, departure = packet.arrival_ns, packet.departure_ns
        if arrival is not None and departure is not None and packet.drop_reason is None:
            self.latency_histogram.record(departure - arrival)
        key = _OUTCOME_KEYS.get(outcome)
        if key is None:
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
            subscriber(packet, self.config.name, outcome)

    def _on_drop(self, packet):
        """The pod's drop exit; ``packet.drop_reason`` already says why."""
        for subscriber in self.subscribers:
            subscriber(packet, self.config.name, None)

    def _on_protocol(self, packet):
        self.protocol_delivered.append((self.sim.now, packet))

    # -- public API --------------------------------------------------------

    def ingress(self, packet):
        """Feed a packet into the pod's NIC slice."""
        if self.crashed:
            # The container is gone; anything still routed here blackholes
            # until BGP converges away from the dead pod.
            packet.drop_reason = "pod_crashed"
            self.nic.counters.incr(NicPipeline.DROP_COUNTERS["pod_crashed"])
            self._on_drop(packet)
            return
        self.nic.ingress(packet)

    def crash(self):
        """Fault injection: the container dies mid-flight.

        Every data core goes offline (in-queue packets are lost with the
        container) and subsequent ingress blackholes.  Recovery is the
        container scheduler's job: reschedule a replacement pod and let
        BGP/BFD converge -- see ``repro.faults``.
        """
        self.crashed = True
        for core in self.cores:
            core.fail()

    def restore(self):
        """Bring the (restarted) pod back into service."""
        self.crashed = False
        for core in self.cores:
            core.restore()

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

    def checkpoint(self):
        """Plain-scalar snapshot of every stateful component in the pod.

        The result is JSON-serializable (dicts/lists/str/int/float/bool/
        None all the way down) and, paired with :meth:`restore_state` on a
        freshly built pod of the same shape, byte-identically resumes the
        frozen pod -- including every RNG stream position, so the restored
        pod's future random draws match what the original would have
        produced (the checkpoint-RNG regression tests pin this down).
        """
        return {
            "name": self.config.name,
            "crashed": self.crashed,
            "outcomes": dict(self.outcomes),
            "latency": self.latency_histogram.checkpoint(),
            "rng": rng_state(self.rng),
            "cores": [core.stats.checkpoint() for core in self.cores],
            "nic": self.nic.checkpoint(),
        }

    def restore_state(self, snapshot):
        """Reinstate a :meth:`checkpoint` into this (freshly built) pod.

        The pod must have the same shape as the checkpointed one (core
        count, reorder queue count); NUMA placement is free to differ --
        that is the whole point of migrating.
        """
        if len(snapshot["cores"]) != len(self.cores):
            raise ValueError(
                f"checkpoint has {len(snapshot['cores'])} cores, "
                f"pod has {len(self.cores)}"
            )
        if snapshot["name"] != self.config.name:
            raise ValueError(
                f"checkpoint is for pod {snapshot['name']!r}, cannot "
                f"restore into {self.config.name!r}"
            )
        self.crashed = snapshot["crashed"]
        self.outcomes = dict(snapshot["outcomes"])
        self.latency_histogram.restore(snapshot["latency"])
        set_rng_state(self.rng, snapshot["rng"])
        for core, state in zip(self.cores, snapshot["cores"]):
            core.stats.restore(state)
        self.nic.restore(snapshot["nic"])

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
        return self.config.data_cores * self.chain.per_core_mpps()


class AlbatrossServer:
    """A dual-NUMA Albatross server hosting containerized gateways.

    Parameters:
        sim: the simulator.
        rngs: an :class:`~repro.sim.RngRegistry`.
        topology: NUMA topology (defaults to 2 x 48 cores).
        cache_mode: ``"analytic"`` (expected hit rate; fast) or
            ``"simulated"`` (shared LRU L3 per node; Fig. 4/5 mode).
        l3_bytes: per-node L3 capacity for simulated mode.
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
        self.pods = {}
        self._free_cores = {
            node.node_id: list(node.core_ids) for node in self.topology.nodes
        }
        self._l3 = {}
        if cache_mode == "simulated":
            capacity = l3_bytes if l3_bytes is not None else 200 * (1 << 20)
            for node in self.topology.nodes:
                self._l3[node.node_id] = SharedL3Cache(capacity)
        elif cache_mode != "analytic":
            raise ValueError(f"unknown cache_mode {cache_mode!r}")

    def l3_cache(self, node_id):
        return self._l3.get(node_id)

    def free_cores(self, node_id):
        return len(self._free_cores[node_id])

    def _pick_node(self, config):
        if config.numa_node is not None:
            if len(self._free_cores[config.numa_node]) < config.total_cores:
                raise ValueError(
                    f"NUMA node {config.numa_node} lacks {config.total_cores} cores"
                )
            return config.numa_node
        for node_id, free in self._free_cores.items():
            if len(free) >= config.total_cores:
                return node_id
        raise ValueError(f"no NUMA node has {config.total_cores} free cores")

    def add_pod(self, config):
        """Create and start a GW pod; returns its :class:`GwPodRuntime`."""
        if config.name in self.pods:
            raise ValueError(f"duplicate pod name {config.name!r}")
        node_id = self._pick_node(config)
        core_ids = [self._free_cores[node_id].pop(0) for _ in range(config.total_cores)]
        memory_node = config.memory_node if config.memory_node is not None else node_id
        numa_factor = self.topology.speed_factor(
            node_id, memory_node, lookup_heavy=True
        )
        pod = GwPodRuntime(
            self.sim,
            config,
            core_ids,
            self.rngs.stream(f"pod.{config.name}"),
            l3_cache=self._l3.get(memory_node),
            numa_factor=numa_factor,
            subscribers=self.subscribers,
        )
        pod.numa_node = node_id
        pod.memory_node = memory_node
        pod.allocated_core_ids = core_ids
        self.pods[config.name] = pod
        return pod

    def remove_pod(self, name):
        """Tear a pod down and return its cores to the free pool."""
        pod = self.pods.pop(name)
        self._free_cores[pod.numa_node].extend(pod.allocated_core_ids)
        return pod

    def pod_ready_delay_ns(self):
        """Container elasticity: a new pod is serving in ~10 seconds."""
        return self.POD_READY_SECONDS * SECOND

    def total_throughput_mpps(self):
        return sum(pod.throughput_mpps() for pod in self.pods.values())
