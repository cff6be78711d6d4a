"""Build a :class:`ScenarioSpec` into a running deployment.

``build(spec)`` is the one construction path behind every entry point:
it creates the simulator, the rng registry, one
:class:`~repro.core.gateway.AlbatrossServer` per server (a flat spec is
a single anonymous server), one pod per
:class:`~repro.scenarios.spec.PodSpec` and (optionally) the migration
controller, the AZ tiers, the declared workloads, telemetry and the
checkpointer, and returns a :class:`RunHandle` the caller drives.

The handle's :meth:`RunHandle.report` emits the **run report**: a plain,
deterministic, JSON-safe dict -- the unit the fleet engine merges across
shards, so its key order and value types must stay stable.
"""

from dataclasses import dataclass
from typing import Optional

from repro.controlplane.snapshot import Stateful
from repro.core.gateway import AlbatrossServer
from repro.scenarios.sections import SECTIONS
from repro.scenarios.spec import EcmpSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import SECOND


def _pod_capacity_pps(pod_spec):
    """Nominal packet capacity of one pod: what ``WorkloadSpec.load`` scales.

    A function of the spec alone, so the sweep pool can price a shard
    without building it.
    """
    if pod_spec.per_core_pps is not None:
        return pod_spec.per_core_pps * pod_spec.data_cores
    from repro.cpu.service import ServiceChain, standard_services

    # Live pods run the chain at its defaults too (35% hit rate, 4800 MHz
    # memory), so this is the built pod's expected_capacity_mpps().
    chain = ServiceChain(standard_services()[pod_spec.service])
    return pod_spec.data_cores * chain.per_core_mpps() * 1e6


def offered_rate_pps(spec, workload):
    """Packets per second one declared workload starts at.

    ``rate_pps`` verbatim; otherwise ``load`` is a fraction of the
    nominal capacity of what the source feeds -- the whole AZ on
    topology specs, the first pod on flat ones.
    """
    if workload.rate_pps is not None:
        return workload.rate_pps
    targets = spec.all_pods if spec.servers else spec.pods[:1]
    return int(sum(map(_pod_capacity_pps, targets)) * workload.load)


def offered_packets(spec, from_ns=0):
    """Packets the workloads offer over ``[from_ns, duration_ns)``, each
    at its starting rate (a rate schedule is not priced).

    The sweep pool's cost estimate for a shard: host time is ~linear in
    simulated packets (ROADMAP, "Where the numbers stand").
    """
    rate = sum(offered_rate_pps(spec, workload) for workload in spec.workloads)
    return rate * max(0, spec.duration_ns - from_ns) // SECOND


@dataclass
class ServerRuntime(Stateful):
    """One live server: its deployment, pods and (on AZ runs) offload tier.

    Its snapshot is the AZ tiers only: the pods are the capture's own
    ``"pods"`` section.
    """

    STATE = ("dispatch", "dpu")

    name: Optional[str]             # None for a flat spec's only server
    server: AlbatrossServer
    pods: dict                      # {name: GwPodRuntime}, spec order
    dispatch: object = None         # FlowPodDispatch (topology specs)
    dpu: object = None              # DpuPreClassifier (its promoter inside) or None


def _build_server(name, pod_specs, sim, rngs, subscribers, l3_bytes):
    """One server and its pods; a flat spec is a single unnamed server."""
    server = AlbatrossServer(sim, rngs, l3_bytes=l3_bytes, subscribers=subscribers)
    return ServerRuntime(name, server, {
        pod_spec.name: server.add_pod(pod_spec) for pod_spec in pod_specs
    })


@dataclass
class TopologyRuntime(Stateful):
    """The live AZ: the ECMP uplink plus every :class:`ServerRuntime`;
    a ``SimCheckpoint``'s ``"topology"`` section."""

    STATE = ("uplink", "servers")

    uplink: object                  # EcmpUplink
    servers: dict                   # {name: ServerRuntime}, spec order


class RunHandle:
    """A built scenario: simulator, server, pods and attached sources.

    An experiment declares everything it simulates on the spec and
    attaches only observers before :meth:`run` (:meth:`subscribe`, a
    sampler reading the cores); the fault scenarios still wire injectors
    onto the handle.
    """

    def __init__(self, spec, sim, rngs, server, pods, sources, migration=None,
                 checkpointer=None, telemetry=None, topology=None):
        self.spec = spec
        self.sim = sim
        self.rngs = rngs
        self.server = server
        self.pods = pods            # {name: GwPodRuntime}, spec order
        self.sources = list(sources)
        # The MigrationController when spec.migration is set; it swaps
        # the migrated pod's entry in self.pods in place on restore.
        self.migration = migration
        # The SimCheckpointer when spec.checkpoint_every_ns is set.
        self.checkpointer = checkpointer
        # The TimeSeriesRecorder when spec.timeseries_every_ns is set.
        self.telemetry = telemetry
        # The TopologyRuntime when spec.servers is set.
        self.topology = topology

    @property
    def pod(self):
        """The first (often only) pod."""
        return next(iter(self.pods.values()))

    def subscribe(self, fn):
        """Call ``fn(packet, where, outcome)`` at every packet exit of the
        deployment (see :class:`~repro.core.gateway.AlbatrossServer` and
        :mod:`repro.topology.dpu`); returns ``fn``, so it decorates too."""
        self.server.subscribers.append(fn)
        return fn

    def capacity_pps(self):
        """Nominal packet capacity of the first pod."""
        return _pod_capacity_pps(self.spec.all_pods[0])

    def run(self, duration_ns=None):
        """Advance the clock by ``duration_ns`` (default: the spec's)."""
        span = self.spec.duration_ns if duration_ns is None else duration_ns
        self.sim.run_until(self.sim.now + span)
        return self

    def restore_checkpoint(self, snapshot):
        """Adopt a ``SimCheckpoint`` on a freshly built handle.

        After this the handle behaves as if it had simulated up to the
        snapshot's instant: ``run(spec.duration_ns - sim.now)`` finishes
        the shard and :meth:`report` is byte-identical to a from-zero
        run (the checkpoint invariant test drives this at random
        simtimes).

        Restore order: clock and sequence counter, rng streams (in
        place -- components keep their bindings), pods, then the
        checkpointer, its armed sections (telemetry, topology) and the
        sources, each of whose pending events goes back into its own
        ``(time, seq)`` slot, so same-timestamp ties replay exactly.
        Only valid on a handle that has not run yet.
        """
        from repro.controlplane.snapshot import CHECKPOINT_SCHEMA_VERSION

        if self.checkpointer is None:
            raise ValueError(
                f"scenario {self.spec.name!r} has no checkpoint cadence "
                "(set spec.checkpoint_every_ns)"
            )
        version = snapshot.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema {version!r} is not "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        self.sim.restore(snapshot["sim"])
        self.rngs.restore(snapshot["rngs"])
        for name, pod in self.pods.items():
            pod.restore(snapshot["pods"][name])
        self.checkpointer.restore(snapshot)
        for key, part in self.checkpointer.sections.items():
            if key not in snapshot:
                raise ValueError(
                    f"scenario {self.spec.name!r} arms {key} but the "
                    f"checkpoint carries no {key} section"
                )
            part.restore(snapshot[key])
        for source, source_snapshot in zip(self.sources, snapshot["sources"]):
            source.restore(source_snapshot)
        return self

    def report(self):
        """The deterministic per-run report (the fleet's merge unit): the
        keys of every armed :data:`~repro.scenarios.sections.SECTIONS` row."""
        report = {}
        for row in SECTIONS:
            if row.armed(self.spec):
                report.update(row.produce(self))
        return report


def build(spec):
    """Construct the deployment a :class:`ScenarioSpec` describes.

    Construction order is part of the determinism contract: every
    component that schedules an event at construction takes the next
    heap sequence number, which breaks same-timestamp ties.
    """
    sim = Simulator()
    rngs = RngRegistry(seed=spec.seed)

    subscribers = []
    runtimes = [
        _build_server(server.name, server.pods, sim, rngs, subscribers, spec.l3_bytes)
        for server in spec.servers
    ] or [_build_server(None, spec.pods, sim, rngs, subscribers, spec.l3_bytes)]
    pods = {
        name: pod for runtime in runtimes for name, pod in runtime.pods.items()
    }
    sinks = {name: pod.ingress for name, pod in pods.items()}

    migration = None
    if spec.migration is not None:
        from repro.controlplane.migration import MigrationController

        home = next(
            runtime for runtime in runtimes if spec.migration.pod in runtime.pods
        )
        migration = MigrationController(sim, home.server, spec.migration, pods)
        # The migrating pod's traffic goes through the controller's
        # route() indirection: buffered during the blackout, and
        # re-resolved after the pods-dict entry swap on restore.
        sinks[spec.migration.pod] = migration.route

    topology = None
    if spec.servers:
        topology = _build_topology(spec, sim, runtimes, sinks, subscribers)

    sources = []
    if spec.workload is not None:
        if not pods:
            raise ValueError(f"scenario {spec.name!r} has a workload but no pods")
        # Topology runs spread load over the whole AZ; flat ones drive
        # the first pod (offered_rate_pps scales by the same targets).
        if topology is not None:
            sink = topology.uplink.forward
        else:
            sink = sinks[spec.pods[0].name]
        sources = [
            _attach_workload(workload, sim, rngs, sink, offered_rate_pps(spec, workload))
            for workload in spec.workloads
        ]

    telemetry = checkpointer = None
    if spec.timeseries_every_ns is not None:
        from repro.telemetry import TimeSeriesRecorder

        telemetry = TimeSeriesRecorder(sim, pods, spec.timeseries_every_ns)
    if spec.checkpoint_every_ns is not None:
        from repro.controlplane.snapshot import SimCheckpointer

        sections = {"telemetry": telemetry, "topology": topology}
        checkpointer = SimCheckpointer(
            sim, rngs, pods, sources, spec.checkpoint_every_ns,
            sections={key: part for key, part in sections.items() if part is not None},
        )
    # handle.server is the first (on flat specs: only) server's
    # deployment, so single-server tooling (capacity probes, fault
    # routers) keeps a meaningful default target on topology runs.
    return RunHandle(
        spec, sim, rngs, runtimes[0].server, pods, sources, migration=migration,
        checkpointer=checkpointer, telemetry=telemetry, topology=topology,
    )


def _build_topology(spec, sim, runtimes, sinks, subscribers):
    """Put the AZ tiers and the ECMP uplink in front of the built servers."""
    from repro.topology import (
        DpuPreClassifier,
        EcmpUplink,
        FlowPodDispatch,
        HotFlowPromoter,
    )

    ecmp = spec.ecmp if spec.ecmp is not None else EcmpSpec()
    tier = spec.dpu_tier
    members = []
    for runtime in runtimes:
        runtime.dispatch = FlowPodDispatch(
            runtime.name, [(name, sinks[name]) for name in runtime.pods],
            hash_seed=ecmp.pod_hash_seed,
        )
        entry = runtime.dispatch.forward
        if tier is not None:
            runtime.dpu = DpuPreClassifier(
                sim, runtime.dispatch.forward,
                table_capacity=tier.table_capacity,
                fast_latency_ns=tier.fast_latency_ns,
                name=runtime.name, subscribers=subscribers,
            )
            runtime.dpu.promoter = HotFlowPromoter(
                sim, runtime.dpu,
                threshold_pps=tier.threshold_pps,
                epoch_ns=tier.epoch_ns,
                demote_after_epochs=tier.demote_after_epochs,
                sketch_capacity=tier.sketch_capacity,
            )
            entry = runtime.dpu.ingress
        members.append((runtime.name, entry))
    uplink = EcmpUplink(
        members, hash_seed=ecmp.hash_seed, pin_flows=ecmp.pin_flows
    )
    return TopologyRuntime(uplink, {runtime.name: runtime for runtime in runtimes})


def _attach_workload(workload, sim, rngs, sink, rate):
    """Start the declared source at ``rate`` pps into ``sink``."""
    from repro.workloads.generators import (
        CbrSource,
        PoissonSource,
        ScheduledSource,
        uniform_population,
        zipf_population,
    )
    from repro.workloads.microburst import MicroburstSource

    layout = {
        "tenants": workload.tenants,
        "first_tenant": workload.first_tenant or 0,
        "first_flow": workload.first_flow or 0,
    }
    if workload.population == "zipf":
        population = zipf_population(
            workload.flows, exponent=workload.zipf_exponent, **layout
        )
    else:
        population = uniform_population(workload.flows, **layout)
    args = (sim, rngs.stream(workload.stream), sink, population, rate)
    if workload.kind == "microburst":
        burst_kwargs = {"burst_factor": workload.burst_factor}
        if workload.burst_duration_ns is not None:
            burst_kwargs["burst_duration_ns"] = workload.burst_duration_ns
        if workload.burst_period_ns is not None:
            burst_kwargs["burst_period_ns"] = workload.burst_period_ns
        return MicroburstSource(*args, size=workload.size, **burst_kwargs)
    if workload.kind == "poisson":
        return PoissonSource(*args, size=workload.size)
    if workload.schedule:
        return ScheduledSource(*args, workload.schedule, size=workload.size)
    return CbrSource(*args, size=workload.size)
