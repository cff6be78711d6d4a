"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single way to say "this deployment, this
workload, this long, this seed" -- every entry point (``simulate``,
``faults``, ``sweep``) builds its servers from one, so a scenario
defined once is runnable from every command and shardable across a
worker fleet.

Specs are **plain data**: every field is a scalar, a nested spec or a
tuple of nested specs, declared exactly once as a dataclass field, so a
spec round-trips losslessly through the one generic
:meth:`Spec.to_dict` / :meth:`Spec.from_dict` pair (the wire format the
fleet engine ships to worker processes, and the schema
``python -m repro sweep`` embeds in its report).  Anything that is not
plain data -- a jitter model, a bespoke limiter, an exit subscriber -- is
attached *after* :func:`repro.scenarios.build` by the calling scenario,
through the returned handle (such runs are not shardable).
"""

from dataclasses import dataclass, field, fields
from typing import Optional


def _require(condition, message):
    if not condition:
        raise ValueError(message)


#: Declarative feature-compatibility table.  Each entry is
#: ``(feature_a, feature_b, why)``; a spec that activates both sides of
#: any row is rejected with one uniform message.  Features are named by
#: the spec field that arms them, so adding a new mutually-exclusive
#: pair is one line here instead of another hand-rolled ``_require``.
INCOMPATIBLE_FEATURES = (
    (
        "migration", "checkpoint_every_ns",
        "a mid-migration deployment is not quiescent-restorable",
    ),
    (
        "servers", "checkpoint_every_ns",
        "the uplink switch and DPU tier are not snapshot-aware yet",
    ),
)


def _is_set(value):
    """Is a field armed?  Tuples by non-emptiness, the rest by not-None."""
    return bool(value) if isinstance(value, tuple) else value is not None


def _field(default=None, spec=None, only_with=None):
    """Declare a field that needs more than ``name: type = default``.

    Parameters:
        spec: the nested spec class the value -- or, with a ``()``
            default, each element of the tuple -- is an instance of;
            :meth:`Spec.from_dict` rebuilds it from its wire dict.
        only_with: name of the field (possibly this one) that must be
            set for this key to appear on the wire.  A field added with
            ``only_with`` naming itself is omitted while unset, so every
            spec that predates it keeps its bytes and its fingerprint.
    """
    return field(default=default, metadata={"spec": spec, "only_with": only_with})


def _to_wire(value):
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [item.to_dict() for item in value]
    return value


class Spec:
    """The wire format every spec dataclass shares.

    Keys are the dataclass fields in declaration order; validation stays
    in each class's ``__post_init__``.
    """

    def to_dict(self):
        return {
            f.name: _to_wire(getattr(self, f.name))
            for f in fields(self)
            if f.metadata.get("only_with") is None
            or _is_set(getattr(self, f.metadata["only_with"]))
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild from a wire dict.

        Absent keys take the field default (so specs serialized before a
        field existed still load); an unknown key raises ``TypeError``.
        """
        kwargs = dict(data)
        for f in fields(cls):
            nested = f.metadata.get("spec")
            value = kwargs.get(f.name)
            if nested is None or value is None:
                continue
            if f.default == ():
                kwargs[f.name] = tuple(nested.from_dict(item) for item in value)
            else:
                kwargs[f.name] = nested.from_dict(value)
        return cls(**kwargs)


@dataclass(eq=False)
class WorkloadSpec(Spec):
    """One packet source aimed at a pod's ingress.

    ``rate_pps`` and ``load`` are mutually exclusive: ``load`` is a
    fraction of the target pod's nominal capacity, resolved at build
    time (so the same workload spec scales with the pod it drives).
    """

    KINDS = ("cbr", "microburst")

    kind: str = "cbr"
    flows: int = 1000
    tenants: int = 50
    rate_pps: Optional[int] = None
    load: Optional[float] = None
    size: int = 256
    stream: str = "traffic"
    population: str = "uniform"
    zipf_exponent: float = 1.05
    burst_factor: float = 6.0
    burst_duration_ns: Optional[int] = None
    burst_period_ns: Optional[int] = None

    def __post_init__(self):
        _require(self.kind in self.KINDS, f"unknown workload kind {self.kind!r}")
        _require(self.population in ("uniform", "zipf"),
                 f"unknown population {self.population!r}")
        _require((self.rate_pps is None) != (self.load is None),
                 "exactly one of rate_pps/load must be set")
        for knob in ("rate_pps", "load"):
            value = getattr(self, knob)
            _require(value is None or value >= 0,
                     f"workload {knob} must be >= 0, got {value}")
        _require(self.flows >= 1, f"workload flows must be >= 1, got {self.flows}")
        _require(self.tenants >= 1,
                 f"workload tenants must be >= 1, got {self.tenants}")
        _require(self.zipf_exponent >= 0,
                 f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        _require(self.size >= 1, f"workload size must be >= 1, got {self.size}")


@dataclass(eq=False)
class PodSpec(Spec):
    """One GW pod, described with scalars only.

    The runtime's only pod description:
    :meth:`~repro.core.gateway.AlbatrossServer.add_pod` builds a live pod
    from it directly.

    ``per_core_pps`` selects a synthetic service calibrated to that
    per-core rate (:func:`repro.cpu.service.scaled_service`); when
    ``None`` the named paper ``service`` is used instead.

    ``limiter_stage1_pps``/``limiter_stage2_pps`` declare the two-stage
    tenant rate limiter by its per-entry rates; the live
    ``TwoStageRateLimiter`` (with its seeded sampler stream) is
    constructed at build time, so limiter-bearing scenarios stay plain
    data and shard cleanly.

    ``reorder_queues`` defaults to 1-8 queues scaled with the data cores
    and ``reorder_depth`` to 4096 entries per queue; ``meta_placement``
    (``"tail"`` unless set; ``"head"`` pays the §7 copy penalty) says
    where the PLB meta header rides.  The last two are absent from the
    wire while unset.
    """

    name: str = "pod"
    data_cores: int = 4
    ctrl_cores: int = 2
    mode: str = "plb"
    service: str = "VPC-Internet"
    per_core_pps: Optional[int] = None
    lookups: int = 4
    reorder_queues: Optional[int] = None
    rx_capacity: int = 1024
    drop_flag_enabled: bool = True
    acl_drop_probability: float = 0.0
    silent_drop_probability: float = 0.0
    numa_node: Optional[int] = None
    memory_node: Optional[int] = None
    limiter_stage1_pps: Optional[int] = None
    limiter_stage2_pps: Optional[int] = None
    meta_placement: Optional[str] = _field(None, only_with="meta_placement")
    reorder_depth: Optional[int] = _field(None, only_with="reorder_depth")

    def __post_init__(self):
        _require(self.data_cores >= 1, "a pod needs at least one data core")


@dataclass(eq=False)
class MigrationSpec(Spec):
    """A planned live migration of one pod, described with scalars only.

    The live :class:`~repro.controlplane.migration.MigrationController`
    is constructed at build time (the same discipline as the limiter
    fields on :class:`PodSpec`), so migration-bearing scenarios remain
    plain data and shard cleanly across the fleet.

    Parameters:
        pod: name of the pod to migrate (must exist in the spec).
        server: for topology specs, the name of the server hosting the
            pod.  Optional (the pod name alone is unambiguous -- pod
            names are unique across the AZ), but when set it must match
            the server that actually hosts the pod, so an operator
            playbook that names both cannot silently act on a stale
            placement.  Must be ``None`` on single-server specs.
        start_ns: sim time at which the controller begins the drain.
        target_numa_node / target_memory_node: placement for the restored
            pod; ``None`` lets the server pick (first node with room --
            typically the original placement, i.e. an in-place restart).
        poll_ns: drain-poll interval (how often quiescence is checked).
        freeze_ns: fixed checkpoint cost once the pod is quiescent.
        per_kib_ns: additional freeze cost per KiB of serialized
            snapshot (models state-transfer bandwidth).
        restore_ns: cost of rebuilding the pod from the snapshot.
        route_update_ns: route-propagation delay before traffic is
            released to the restored pod.
        flush_rate_pps: pace at which buffered packets are released to
            the restored pod (the upstream buffer drains at line rate,
            not in one burst).  ``None`` releases the whole buffer in a
            single event -- fine for idle pods, but a large burst can
            exceed the reorder timeout window and leave as best-effort.
            Set it at or below the pod's capacity to keep the
            zero-reordering guarantee under load.
    """

    pod: str
    start_ns: int
    target_numa_node: Optional[int] = None
    target_memory_node: Optional[int] = None
    poll_ns: int = 50_000
    freeze_ns: int = 0
    per_kib_ns: int = 0
    restore_ns: int = 0
    route_update_ns: int = 0
    flush_rate_pps: Optional[int] = None
    server: Optional[str] = None

    def __post_init__(self):
        _require(bool(self.pod), "a migration needs a pod name")
        _require(self.start_ns >= 0, "migration start_ns must be >= 0")
        _require(self.poll_ns > 0, "migration poll_ns must be > 0")
        _require(
            self.flush_rate_pps is None or self.flush_rate_pps > 0,
            "migration flush_rate_pps must be > 0 when set",
        )


def _require_unique(names, what):
    seen = set()
    for name in names:
        _require(name not in seen, f"duplicate {what} name {name!r}")
        seen.add(name)


@dataclass(eq=False)
class ServerSpec(Spec):
    """One gateway server of an AZ topology, described with scalars only.

    Groups the :class:`PodSpec` deployments the server hosts; NUMA
    placement stays a per-pod concern (``PodSpec.numa_node`` /
    ``memory_node``), exactly as on single-server specs.  Pod names must
    be unique across the whole AZ -- the uplink addresses pods by name.
    """

    name: str
    pods: tuple = _field((), spec=PodSpec)

    def __post_init__(self):
        _require(bool(self.name), "a server needs a name")
        self.pods = tuple(self.pods)
        _require(bool(self.pods), f"server {self.name!r} needs at least one pod")
        _require_unique((pod.name for pod in self.pods), "pod")


@dataclass(eq=False)
class EcmpSpec(Spec):
    """The AZ uplink switch's ECMP behaviour, described with scalars only.

    Parameters:
        hash_seed: seed for the uplink's 5-tuple CRC hash (the same
            seeded-hash family :mod:`repro.packet.hashing` gives the
            limiter and the PLB order-queue selector, so uplink spraying
            is uncorrelated with both).
        pod_hash_seed: seed for the second-level per-server pod pick on
            servers hosting more than one pod.
        pin_flows: when True (default) the uplink pins each flow to the
            server its first packet hashed to, so a flow's server never
            changes for its lifetime -- the cross-server session-affinity
            invariant that makes per-flow ordering across the AZ trivial.
    """

    hash_seed: int = 101
    pod_hash_seed: int = 211
    pin_flows: bool = True


@dataclass(eq=False)
class DpuTierSpec(Spec):
    """The cheap per-server "DPU" pre-classifier tier, scalars only.

    Hot tenants are promoted into the DPU's fast table by the hitter
    machinery (:class:`~repro.core.hitters.SpaceSavingSketch` ranked per
    epoch); promoted traffic is forwarded at ``fast_latency_ns`` without
    ever touching the server's NIC/FPGA+CPU pipeline, and tenants quiet
    for ``demote_after_epochs`` epochs fall back to the slow path.

    Parameters:
        table_capacity: fast-table entries per server DPU.
        threshold_pps: observed per-tenant rate above which a tenant is
            promoted.
        epoch_ns: detection epoch; the sketch resets every epoch.
        demote_after_epochs: quiet epochs before a promoted tenant is
            demoted.
        fast_latency_ns: fixed DPU forwarding latency for fast-path hits.
        sketch_capacity: tracked tenants in the space-saving sketch.
    """

    table_capacity: int = 256
    threshold_pps: int = 5_000
    epoch_ns: int = 10_000_000
    demote_after_epochs: int = 2
    fast_latency_ns: int = 2_000
    sketch_capacity: int = 1024

    def __post_init__(self):
        for name in ("table_capacity", "threshold_pps", "epoch_ns",
                     "demote_after_epochs", "sketch_capacity"):
            _require(getattr(self, name) > 0, f"dpu {name} must be > 0")
        _require(self.fast_latency_ns >= 0, "dpu fast_latency_ns must be >= 0")


@dataclass(eq=False)
class ScenarioSpec(Spec):
    """A named, seeded, fully-declarative simulation run.

    Parameters:
        name: scenario identity (report key, rng namespace for extras).
        pods: tuple of :class:`PodSpec` (may be empty for control-plane
            scenarios that build no gateway server).
        workload: optional :class:`WorkloadSpec` aimed at the first pod;
            scenarios with bespoke traffic leave it ``None`` and attach
            sources through the built handle.
        duration_ns: how long :meth:`RunHandle.run` advances the clock.
        seed: the experiment seed every rng stream derives from.
        migration: optional :class:`MigrationSpec`; build time attaches a
            :class:`~repro.controlplane.migration.MigrationController`
            that executes it as clock-driven events.
        checkpoint_every_ns: optional periodic ``SimCheckpoint`` cadence;
            build time attaches a :class:`~repro.controlplane.snapshot.
            SimCheckpointer` that freezes the whole deployment every
            that many sim-ns (at quiescent instants), giving long shards
            a restart point.  Mutually exclusive with ``migration`` --
            a mid-migration deployment is not quiescent-restorable.
        timeseries_every_ns: optional windowed-telemetry cadence; build
            time attaches a :class:`~repro.telemetry.TimeSeriesRecorder`
            that samples every pod at that window and the run report
            grows a ``"timeseries"`` section.
        servers: tuple of :class:`ServerSpec` -- an AZ of gateway
            servers behind an ECMP uplink.  Mutually exclusive with
            flat ``pods`` (a spec is either single-server, with pods at
            the top level, or a topology).
        ecmp: optional :class:`EcmpSpec` tuning the uplink switch;
            ``None`` with ``servers`` set means defaults.
        dpu_tier: optional :class:`DpuTierSpec` arming the per-server
            DPU pre-classifier in front of each NIC/FPGA+CPU pipeline.

    Feature pairs that cannot be combined live in the declarative
    :data:`INCOMPATIBLE_FEATURES` table, not in ad-hoc guards here.
    """

    name: str
    pods: tuple = _field((), spec=PodSpec)
    workload: Optional[WorkloadSpec] = _field(spec=WorkloadSpec)
    duration_ns: int = 0
    seed: int = 42
    migration: Optional[MigrationSpec] = _field(spec=MigrationSpec)
    checkpoint_every_ns: Optional[int] = None
    timeseries_every_ns: Optional[int] = None
    # Topology keys appear only on topology specs: single-server wire
    # dicts (and their spec fingerprints, which key the durable run
    # store's resume cache) stay byte-for-byte what they were before the
    # topology fields existed.
    servers: tuple = _field((), spec=ServerSpec, only_with="servers")
    ecmp: Optional[EcmpSpec] = _field(spec=EcmpSpec, only_with="servers")
    dpu_tier: Optional[DpuTierSpec] = _field(spec=DpuTierSpec, only_with="servers")

    def __post_init__(self):
        _require(bool(self.name), "a scenario needs a name")
        _require(self.duration_ns >= 0,
                 f"duration_ns must be >= 0, got {self.duration_ns}")
        self.pods = tuple(self.pods)
        self.servers = tuple(self.servers)
        _require(
            not (self.pods and self.servers),
            "a scenario declares flat pods or a server topology, not both",
        )
        _require(
            self.servers or (self.ecmp is None and self.dpu_tier is None),
            "ecmp/dpu_tier require a server topology (set servers)",
        )
        _require_unique((server.name for server in self.servers), "server")
        _require_unique((pod.name for pod in self.all_pods), "pod")
        pod_homes = {pod.name: None for pod in self.pods}
        pod_homes.update(
            (pod.name, server.name) for server in self.servers for pod in server.pods
        )
        migration = self.migration
        if migration is not None:
            _require(
                migration.pod in pod_homes,
                f"migration targets unknown pod {migration.pod!r}",
            )
            if migration.server is not None:
                _require(
                    bool(self.servers),
                    f"migration names server {migration.server!r} but the "
                    f"spec has no topology",
                )
                home = pod_homes[migration.pod]
                _require(
                    migration.server == home,
                    f"migration targets pod {migration.pod!r} on server "
                    f"{migration.server!r}, but it lives on {home!r}",
                )
        for cadence in ("checkpoint_every_ns", "timeseries_every_ns"):
            value = getattr(self, cadence)
            _require(value is None or value > 0, f"{cadence} must be > 0 when set")
        for left, right, why in INCOMPATIBLE_FEATURES:
            _require(
                not (_is_set(getattr(self, left)) and _is_set(getattr(self, right))),
                f"{left} cannot be combined with {right}: {why}",
            )

    @property
    def all_pods(self):
        """Every :class:`PodSpec`, across flat pods and all servers."""
        return self.pods + tuple(
            pod for server in self.servers for pod in server.pods
        )

    def with_overrides(self, seed=None, duration_ns=None, overrides=None):
        """A copy with ``seed``/``duration_ns`` and dotted field overrides.

        ``overrides`` maps dotted paths into the serialized form to new
        values, e.g. ``{"workload.tenants": 100_000}`` or
        ``{"pods.0.data_cores": 8}``.
        """
        data = self.to_dict()
        if seed is not None:
            data["seed"] = seed
        if duration_ns is not None:
            data["duration_ns"] = duration_ns
        for path, value in (overrides or {}).items():
            apply_override(data, path, value)
        return ScenarioSpec.from_dict(data)


def _override_key(node, part, path):
    """``part`` as a valid key/index into ``node``, or the uniform KeyError."""
    missing = KeyError(f"override path {path!r} does not exist in the spec")
    if isinstance(node, list):
        try:
            index = int(part)
        except ValueError:
            raise missing from None
        if not -len(node) <= index < len(node):
            raise missing
        return index
    if not isinstance(node, dict) or part not in node:
        raise missing
    return part


def apply_override(data, path, value):
    """Set ``path`` (dotted, list indices allowed) in a spec dict.

    Every malformed path -- a missing dict key, a non-integer or
    out-of-range list index, or a path that descends through a scalar --
    raises the same ``KeyError`` naming the full path.
    """
    *parents, last = path.split(".")
    node = data
    for part in parents:
        node = node[_override_key(node, part, path)]
    node[_override_key(node, last, path)] = value
