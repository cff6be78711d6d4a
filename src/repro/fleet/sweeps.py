"""Named sweeps: ``python -m repro sweep <name>``.

Each sweep is a factory ``fn(quick, seed) -> [ShardSpec, ...]`` over
specs from the unified scenario registry:

* ``tenant-scaling`` -- the fleet headline: the same 4-core PLB pod
  swept across tenant populations, 1k up to 1M simulated tenants (quick
  mode spans 1k-50k but still covers >= 100k tenants *in total*, the CI
  smoke bar).  Per-flow state, limiter pressure and histogram shape all
  scale with the axis while the offered load fraction stays fixed.
* ``seed-replication`` -- the ``steady-state-plb`` scenario replicated
  under independently derived seeds: the cheap way to tell a real
  regression from seed luck, and the fleet engine's own determinism
  canary (every replica is a byte-stable sub-run).
* ``migration-replication`` -- the ``rolling-upgrade`` live-migration
  scenario replicated under derived seeds: every shard executes a full
  drain/freeze/restore/route-update cycle, so the sweep doubles as the
  migration determinism canary (and its report carries the per-shard
  ``migration`` section through the merge).
* ``az-scaling`` -- the AZ topology story: a fixed tenant population
  (1M in full mode) ECMP-sprayed over 2..8 gateway servers with the
  DPU tier armed, so the merged report's ``servers``/``tiers``/
  ``uplink`` sections track how load and hot-flow offload spread as
  the AZ grows.
"""

from repro.fleet.shard import ShardSpec, replicate, shard_seed
from repro.scenarios.registry import scenario_spec

#: Tenants per shard.  Quick totals 100k (the CI smoke floor); full
#: mode reaches the paper's million-tenant scale on the last shard.
TENANT_AXIS_QUICK = (1_000, 5_000, 14_000, 30_000, 50_000)
TENANT_AXIS_FULL = (1_000, 10_000, 100_000, 1_000_000)


def tenant_scaling(quick=False, seed=42):
    """Tenant-scaling shards: one flow per tenant, fixed load fraction."""
    axis = TENANT_AXIS_QUICK if quick else TENANT_AXIS_FULL
    base = scenario_spec("fleet-steady", quick=quick)
    shards = []
    for index, tenants in enumerate(axis):
        spec = base.with_overrides(
            seed=shard_seed(seed, index),
            overrides={
                "workload.tenants": tenants,
                "workload.flows": tenants,
            },
        )
        shards.append(ShardSpec(index, {"tenants": tenants}, spec))
    return shards


def seed_replication(quick=False, seed=42):
    """The steady-state scenario under independently derived seeds."""
    base = scenario_spec("steady-state-plb", quick=quick)
    return replicate(base, count=4 if quick else 8, seed=seed)


def migration_replication(quick=False, seed=42):
    """The rolling-upgrade migration under independently derived seeds."""
    from repro.controlplane.scenarios import migration_scenario_spec

    base = migration_scenario_spec("rolling-upgrade", quick=quick)
    return replicate(base, count=3 if quick else 6, seed=seed)


#: Servers per shard for ``az-scaling``; full mode reaches the
#: paper-scale 8-server AZ at a million tenants.
AZ_SERVER_AXIS_QUICK = (2, 3)
AZ_SERVER_AXIS_FULL = (2, 4, 8)


def az_scaling(quick=False, seed=42):
    """AZ scale-out: one tenant population spread over 2..8 ECMP servers."""
    axis = AZ_SERVER_AXIS_QUICK if quick else AZ_SERVER_AXIS_FULL
    tenants = 10_000 if quick else 1_000_000
    shards = []
    for index, servers in enumerate(axis):
        spec = scenario_spec(
            "az-steady", quick=quick, servers=servers, tenants=tenants
        ).with_overrides(seed=shard_seed(seed, index))
        shards.append(ShardSpec(index, {"servers": servers}, spec))
    return shards


#: Ordered (name, factory) pairs; listing order is the inventory order.
SWEEP_FACTORIES = (
    ("tenant-scaling", tenant_scaling),
    ("seed-replication", seed_replication),
    ("migration-replication", migration_replication),
    ("az-scaling", az_scaling),
)


def sweep_names():
    return tuple(name for name, _ in SWEEP_FACTORIES)


def build_sweep(name, quick=False, seed=42):
    """Shards for the named sweep (``ValueError`` on a typo)."""
    for key, factory in SWEEP_FACTORIES:
        if key == name:
            return factory(quick=quick, seed=seed)
    raise ValueError(
        f"unknown sweep {name!r}; choose from {', '.join(sweep_names())}"
    )


def with_timeseries(shards, every_ns):
    """Arm windowed telemetry on every shard of a built sweep.

    Returns new :class:`ShardSpec` objects whose specs carry
    ``timeseries_every_ns`` (via the serialized-override path, so axes
    and seeds are untouched); the merged artifact then grows the
    window-aligned ``merged["timeseries"]`` concatenation.
    """
    return [
        ShardSpec(
            shard.index,
            dict(shard.axes),
            shard.spec.with_overrides(
                overrides={"timeseries_every_ns": int(every_ns)}
            ),
        )
        for shard in shards
    ]


def sweep_descriptions():
    """{name: first docstring line} for ``inventory``."""
    return {
        name: (factory.__doc__ or "").strip().splitlines()[0]
        for name, factory in SWEEP_FACTORIES
    }
