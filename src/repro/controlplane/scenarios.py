"""Named live-migration scenarios: ``python -m repro migrate <name>``.

Each scenario is a plain :class:`~repro.scenarios.spec.ScenarioSpec`
with a :class:`~repro.scenarios.spec.MigrationSpec` attached, so the
same run is reachable from ``migrate``, ``simulate`` (via the handle)
and the fleet sweep engine.  Both scenarios must finish their migration
with **zero packet loss and zero per-flow reordering** -- the invariants
the migration test battery pins down.

* ``rolling-upgrade`` -- one loaded pod is drained, frozen and restored
  onto the other NUMA node mid-run: the maintenance story (kernel or
  pod-image upgrade of the source slice) with traffic held upstream
  during the blackout.
* ``rebalance-hot-pod`` -- two pods share NUMA node 0; the one carrying
  a bursty zipf tenant mix is migrated to the idle node 1, the
  fleet-scheduler rebalancing story.
"""

from repro.core.nic import NicPipeline
from repro.faults.scenarios import ScenarioReport
from repro.scenarios import MigrationSpec, PodSpec, ScenarioSpec, WorkloadSpec, build, lookup
from repro.sim.units import MS, US

#: Drop counters summed into the headline ``drops_total`` metric.
_DROP_COUNTERS = frozenset(NicPipeline.DROP_COUNTERS.values())


def rolling_upgrade_spec(seed=42, quick=False):
    """A loaded pod is live-migrated to the other NUMA node mid-run."""
    duration = 20 * MS if quick else 60 * MS
    return ScenarioSpec(
        name="rolling-upgrade",
        pods=(
            PodSpec(name="gw", data_cores=4, per_core_pps=200_000, numa_node=0),
        ),
        workload=WorkloadSpec(
            kind="cbr", flows=200, tenants=20, load=0.5, stream="traffic"
        ),
        duration_ns=duration,
        seed=seed,
        migration=MigrationSpec(
            pod="gw",
            start_ns=duration // 3,
            target_numa_node=1,
            poll_ns=50_000,
            freeze_ns=200 * US,
            per_kib_ns=50,
            restore_ns=300 * US,
            route_update_ns=100 * US,
            flush_rate_pps=800_000,   # the pod's line rate (4 x 200k)
        ),
    )


def rebalance_hot_pod_spec(seed=42, quick=False):
    """The hot pod of a crowded NUMA node is migrated to the idle node."""
    duration = 20 * MS if quick else 60 * MS
    return ScenarioSpec(
        name="rebalance-hot-pod",
        pods=(
            PodSpec(name="hot", data_cores=4, per_core_pps=150_000, numa_node=0),
            PodSpec(name="steady", data_cores=4, per_core_pps=150_000, numa_node=0),
        ),
        workload=WorkloadSpec(
            kind="microburst",
            flows=500,
            tenants=40,
            load=0.6,
            population="zipf",
            burst_factor=3.0,
            stream="traffic",
        ),
        duration_ns=duration,
        seed=seed,
        migration=MigrationSpec(
            pod="hot",
            start_ns=duration // 2,
            target_numa_node=1,
            poll_ns=50_000,
            freeze_ns=250 * US,
            per_kib_ns=50,
            restore_ns=350 * US,
            route_update_ns=150 * US,
            flush_rate_pps=600_000,   # the pod's line rate (4 x 150k)
        ),
    )


#: name -> spec factory, in name order (``migrate all`` runs this order).
MIGRATION_SCENARIOS = {
    "rebalance-hot-pod": rebalance_hot_pod_spec,
    "rolling-upgrade": rolling_upgrade_spec,
}


def migration_scenario_spec(name, seed=42, quick=False):
    """The :class:`ScenarioSpec` behind one named migration scenario."""
    factory = lookup(MIGRATION_SCENARIOS, name, "migration scenario")
    return factory(seed=seed, quick=quick)


def run_migration_scenario(name, seed=42, quick=False):
    """Run one named migration scenario; returns its :class:`ScenarioReport`."""
    spec = migration_scenario_spec(name, seed=seed, quick=quick)
    handle = build(spec).run()
    plan = handle.migration.plan
    report = ScenarioReport(name, seed)
    report.add("migrated_pod", plan.pod)
    report.add("final_state", plan.state)
    report.add("source_numa_node", plan.source_numa_node)
    report.add("target_numa_node", plan.target_numa_node)
    report.add("drain_ms", None if plan.drain_ns is None else plan.drain_ns / MS)
    report.add(
        "blackout_ms", None if plan.blackout_ns is None else plan.blackout_ns / MS
    )
    report.add("total_ms", None if plan.total_ns is None else plan.total_ns / MS)
    report.add("packets_buffered", plan.packets_buffered)
    report.add("snapshot_kib", plan.snapshot_bytes / 1024)
    report.add("drain_polls", plan.poll_count)
    drops_total = 0
    best_effort_total = 0
    for pod_name, pod in handle.pods.items():
        counters = pod.counters.snapshot()
        drops = sum(counters.get(counter, 0) for counter in _DROP_COUNTERS)
        drops_total += drops
        report.add(f"{pod_name}_transmitted", pod.transmitted())
        report.add(f"{pod_name}_drops", drops)
        if pod.spec.mode == "plb":
            best_effort_total += pod.reorder_stats.best_effort
            report.add(f"{pod_name}_best_effort", pod.reorder_stats.best_effort)
    report.add("drops_total", drops_total)
    report.add("best_effort_total", best_effort_total)
    return report
