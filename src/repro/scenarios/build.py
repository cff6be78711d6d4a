"""Build a :class:`ScenarioSpec` into a running deployment.

``build(spec)`` is the one construction path behind every entry point:
it creates the simulator, the rng registry, one
:class:`~repro.core.gateway.AlbatrossServer` per server (a flat spec is
a single anonymous server), one pod per
:class:`~repro.scenarios.spec.PodSpec` and (optionally) the migration
controller, the AZ tiers, the declared workload, telemetry and the
checkpointer, and returns a :class:`RunHandle` the caller drives.

The handle's :meth:`RunHandle.report` emits the **run report**: a plain,
deterministic, JSON-safe dict -- the unit the fleet engine merges across
shards, so its key order and value types must stay stable.
"""

from dataclasses import dataclass
from typing import Optional

from repro.core.gateway import AlbatrossServer, PodConfig
from repro.scenarios.spec import EcmpSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import SECOND


def scaled_service(name="scaled", per_core_pps=100_000, lookups=4):
    """A synthetic service whose saturated per-core rate is ``per_core_pps``.

    Uses the analytic 35% hit-rate lookup cost to solve for base_ns, so the
    paper-level per-core ratios carry over exactly at laptop packet rates.
    """
    from repro.cpu.service import GatewayService, LookupSpec, MemoryTimings

    timings = MemoryTimings()
    lookup_ns = timings.expected_lookup_ns(0.35)
    total_ns = 1e9 / per_core_pps
    base_ns = max(1, int(total_ns - lookups * lookup_ns))
    specs = [LookupSpec(f"table{i}", 1_000_000, 256) for i in range(lookups)]
    return GatewayService(name, base_ns, specs)


#: PodSpec fields build() turns into live objects (the synthetic service,
#: the limiter); every other field is a PodConfig kwarg of the same name.
_BUILT_FIELDS = (
    "per_core_pps", "lookups", "limiter_stage1_pps", "limiter_stage2_pps",
)


def _build_pod(pod_spec, server, rngs):
    """Add one pod to ``server``, constructing its live service and limiter."""
    kwargs = {
        name: value for name, value in pod_spec.to_dict().items()
        if name not in _BUILT_FIELDS
    }
    if pod_spec.per_core_pps is not None:
        kwargs["custom_service"] = scaled_service(
            per_core_pps=pod_spec.per_core_pps, lookups=pod_spec.lookups
        )
    if pod_spec.limiter_stage1_pps is not None:
        from repro.core.ratelimit import TwoStageRateLimiter

        kwargs["rate_limiter"] = TwoStageRateLimiter(
            rngs.stream(f"limiter.{pod_spec.name}"),
            stage1_rate_pps=pod_spec.limiter_stage1_pps,
            stage2_rate_pps=(
                pod_spec.limiter_stage2_pps
                if pod_spec.limiter_stage2_pps is not None
                else pod_spec.limiter_stage1_pps // 4 or 1
            ),
        )
    return server.add_pod(PodConfig(**kwargs))


def _pod_capacity_pps(pod_spec):
    """Nominal packet capacity of one pod: what ``WorkloadSpec.load`` scales.

    A function of the spec alone, so the sweep pool can price a shard
    without building it.
    """
    if pod_spec.per_core_pps is not None:
        return pod_spec.per_core_pps * pod_spec.data_cores
    from repro.cpu.service import ServiceChain, standard_services

    # PodSpec carries no hit-rate or memory-clock knob, so the analytic
    # chain at its defaults is the live pod's expected_capacity_mpps().
    chain = ServiceChain(standard_services()[pod_spec.service])
    return pod_spec.data_cores * chain.per_core_mpps() * 1e6


def offered_rate_pps(spec):
    """Packets per second the declared workload offers.

    ``rate_pps`` verbatim; otherwise ``load`` is a fraction of the
    nominal capacity of what the source feeds -- the whole AZ on
    topology specs, the first pod on flat ones.
    """
    workload = spec.workload
    if workload.rate_pps is not None:
        return workload.rate_pps
    targets = spec.all_pods if spec.servers else spec.pods[:1]
    return int(sum(map(_pod_capacity_pps, targets)) * workload.load)


def offered_packets(spec, from_ns=0):
    """Packets the workload offers over ``[from_ns, duration_ns)``.

    The sweep pool's cost estimate for a shard: host time is ~linear in
    simulated packets (ROADMAP, "Where the numbers stand").
    """
    if spec.workload is None:
        return 0
    return offered_rate_pps(spec) * max(0, spec.duration_ns - from_ns) // SECOND


@dataclass
class ServerRuntime:
    """One live server: its deployment, pods and (on AZ runs) offload tier."""

    name: Optional[str]             # None for a flat spec's only server
    server: AlbatrossServer
    pods: dict                      # {name: GwPodRuntime}, spec order
    dispatch: object = None         # FlowPodDispatch (topology specs)
    dpu: object = None              # DpuPreClassifier or None
    promoter: object = None         # HotFlowPromoter or None


def _build_server(name, pod_specs, sim, rngs, subscribers):
    """One server and its pods; a flat spec is a single unnamed server."""
    server = AlbatrossServer(sim, rngs, subscribers=subscribers)
    return ServerRuntime(name, server, {
        pod_spec.name: _build_pod(pod_spec, server, rngs)
        for pod_spec in pod_specs
    })


@dataclass
class TopologyRuntime:
    """The live AZ: the ECMP uplink plus every :class:`ServerRuntime`."""

    uplink: object                  # EcmpUplink
    servers: dict                   # {name: ServerRuntime}, spec order


class RunHandle:
    """A built scenario: simulator, server, pods and attached sources.

    Scenario functions are free to wire extra machinery (fault
    injectors, limiters, bespoke sinks) onto the handle before calling
    :meth:`run`; everything reachable from ``sim``/``rngs``/``server``
    is theirs to extend.
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

        Restore order: clock, rng streams (in place -- components keep
        their bindings), pod state, then every pending event re-created
        in ``(time, seq)`` order so same-timestamp ties replay exactly.
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
        self.sim.restore_clock(snapshot["sim"])
        self.rngs.restore(snapshot["rngs"])
        for name, pod in self.pods.items():
            pod.restore_state(snapshot["pods"][name])
        rearms = list(self.checkpointer.restore(snapshot))
        if self.telemetry is not None:
            telemetry_snapshot = snapshot.get("telemetry")
            if telemetry_snapshot is None:
                raise ValueError(
                    f"scenario {self.spec.name!r} has windowed telemetry "
                    "armed but the checkpoint carries no telemetry section"
                )
            rearms.extend(self.telemetry.restore(telemetry_snapshot))
        for source, source_snapshot in zip(self.sources, snapshot["sources"]):
            rearms.extend(source.restore(source_snapshot))
        rearms.sort(key=lambda entry: (entry[0], entry[1]))
        for _time, _seq, rearm in rearms:
            rearm()
        return self

    def report(self):
        """The deterministic per-run report (the fleet's merge unit)."""
        pods = {}
        for name, pod in self.pods.items():
            entry = {
                "transmitted": pod.transmitted(),
                "counters": dict(sorted(pod.counters.snapshot().items())),
                "outcomes": dict(sorted(pod.outcomes.items())),
                "latency": pod.latency_histogram.to_dict(),
            }
            if pod.config.mode == "plb":
                stats = pod.reorder_stats
                entry["reorder"] = {
                    "in_order": stats.in_order,
                    "best_effort": stats.best_effort,
                    "hol_events": stats.hol_events,
                }
            pods[name] = entry
        report = {
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "duration_ns": self.spec.duration_ns,
            "sim_ns": self.sim.now,
            "events": self.sim.events_processed,
            "pods": pods,
        }
        # Only when armed: reports of telemetry-less scenarios must stay
        # byte-identical to pre-telemetry output.
        if self.telemetry is not None:
            report["timeseries"] = self.telemetry.series()
        if self.migration is not None:
            report["migration"] = self.migration.plan.to_dict()
        # Topology sections likewise appear only on topology runs.
        if self.topology is not None:
            report["uplink"] = self._uplink_section()
            report["servers"] = self._servers_section()
            report["tiers"] = self._tiers_section()
        return report

    def _uplink_section(self):
        uplink = self.topology.uplink
        return {
            "members": [name for name, _sink in uplink.members],
            "pinned_flows": uplink.pinned_flows,
            "counters": dict(sorted(uplink.counters.snapshot().items())),
        }

    def _servers_section(self):
        servers = {}
        for name, runtime in self.topology.servers.items():
            entry = {
                "pods": list(runtime.pods),
                "dispatch": dict(
                    sorted(runtime.dispatch.counters.snapshot().items())
                ),
            }
            if runtime.dpu is not None:
                entry["dpu"] = {
                    "occupancy": runtime.dpu.occupancy,
                    "counters": dict(
                        sorted(runtime.dpu.counters.snapshot().items())
                    ),
                }
            servers[name] = entry
        return servers

    def _tiers_section(self):
        """AZ-wide per-tier rollup: the DPU tier vs the host pipeline."""
        host_packets = sum(pod.transmitted() for pod in self.pods.values())
        tiers = {"host": {"packets": host_packets}}
        runtimes = [
            runtime for runtime in self.topology.servers.values()
            if runtime.dpu is not None
        ]
        if runtimes:
            from repro.metrics.histogram import LatencyHistogram

            fast = LatencyHistogram(seed=self.spec.seed)
            counters = {}
            occupancy = 0
            for runtime in runtimes:
                fast.merge(runtime.dpu.latency_histogram)
                occupancy += runtime.dpu.occupancy
                for key, value in runtime.dpu.counters.snapshot().items():
                    counters[key] = counters.get(key, 0) + value
            tiers["dpu"] = {
                "packets": counters.get("fast_forwards", 0),
                "occupancy": occupancy,
                "counters": dict(sorted(counters.items())),
                "latency": fast.to_dict(),
            }
        return tiers


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
        _build_server(server.name, server.pods, sim, rngs, subscribers)
        for server in spec.servers
    ] or [_build_server(None, spec.pods, sim, rngs, subscribers)]
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
        sources.append(
            _attach_workload(spec.workload, sim, rngs, sink, offered_rate_pps(spec))
        )

    telemetry = checkpointer = None
    if spec.timeseries_every_ns is not None:
        from repro.telemetry import TimeSeriesRecorder

        telemetry = TimeSeriesRecorder(
            sim, pods, spec.timeseries_every_ns, seed=spec.seed
        )
        subscribers.append(telemetry.on_exit)
    if spec.checkpoint_every_ns is not None:
        from repro.controlplane.snapshot import SimCheckpointer

        checkpointer = SimCheckpointer(
            sim, rngs, pods, sources, spec.checkpoint_every_ns,
            recorder=telemetry,
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
                seed=spec.seed, name=runtime.name, subscribers=subscribers,
            )
            runtime.promoter = HotFlowPromoter(
                sim, runtime.dpu,
                threshold_pps=tier.threshold_pps,
                epoch_ns=tier.epoch_ns,
                demote_after_epochs=tier.demote_after_epochs,
                sketch_capacity=tier.sketch_capacity,
            )
            runtime.dpu.promoter = runtime.promoter
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
        uniform_population,
        zipf_population,
    )
    from repro.workloads.microburst import MicroburstSource

    if workload.population == "zipf":
        population = zipf_population(
            workload.flows,
            exponent=workload.zipf_exponent,
            tenants=workload.tenants,
        )
    else:
        population = uniform_population(workload.flows, tenants=workload.tenants)
    stream = rngs.stream(workload.stream)
    if workload.kind == "microburst":
        burst_kwargs = {"burst_factor": workload.burst_factor}
        if workload.burst_duration_ns is not None:
            burst_kwargs["burst_duration_ns"] = workload.burst_duration_ns
        if workload.burst_period_ns is not None:
            burst_kwargs["burst_period_ns"] = workload.burst_period_ns
        return MicroburstSource(
            sim, stream, sink, population, rate,
            size=workload.size, **burst_kwargs,
        )
    return CbrSource(
        sim, stream, sink, population, rate, size=workload.size
    )
