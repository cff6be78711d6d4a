"""The unified scenario registry.

One place that names every canonical :class:`ScenarioSpec`; ``sweep``
shards them across workers, the repo benchmark times them, and
``python -m repro inventory`` lists them next to the experiments and
fault plans.  Each entry is a factory ``fn(quick) -> ScenarioSpec`` so
quick mode can shorten durations without forking the definition.
"""

from repro.scenarios.spec import (
    DpuTierSpec,
    EcmpSpec,
    PodSpec,
    ScenarioSpec,
    ServerSpec,
    WorkloadSpec,
)
from repro.sim.units import MS


def steady_state_plb(quick=False):
    """Steady-state PLB spray: 4 cores, 70% load, uniform flows."""
    return ScenarioSpec(
        name="steady-state-plb",
        pods=(PodSpec(name="pod", data_cores=4, per_core_pps=200_000, mode="plb"),),
        workload=WorkloadSpec(
            kind="cbr", flows=64, tenants=4, load=0.7, stream="bench-cbr"
        ),
        duration_ns=(50 if quick else 200) * MS,
        seed=1,
    )


def microburst_reorder(quick=False):
    """Microburst reorder stress: 6x bursts into 256-slot RX rings."""
    return ScenarioSpec(
        name="microburst-reorder",
        pods=(
            PodSpec(
                name="pod", data_cores=4, per_core_pps=150_000, mode="plb",
                rx_capacity=256,
            ),
        ),
        workload=WorkloadSpec(
            kind="microburst", flows=128, tenants=8, load=0.6,
            stream="bench-burst", burst_factor=6.0,
            burst_duration_ns=5 * MS, burst_period_ns=25 * MS,
        ),
        duration_ns=(100 if quick else 400) * MS,
        seed=2,
    )


def ratelimit_churn(quick=False):
    """Two-stage limiter at 90% load (the churn loop rides on top).

    Each of the 16 tenants offers ~22.5 kpps against a 16 + 4 kpps
    ceiling, so every packet meets the limiter and all three of its
    plain outcomes occur: allowed, marked by stage 1 and passed by the
    meter table, and dropped by the meter table.
    """
    return ScenarioSpec(
        name="ratelimit-churn",
        pods=(
            PodSpec(
                name="pod", data_cores=4, per_core_pps=100_000, mode="plb",
                limiter_stage1_pps=16_000, limiter_stage2_pps=4_000,
            ),
        ),
        workload=WorkloadSpec(
            kind="cbr", flows=64, tenants=16, load=0.9, stream="bench-cbr"
        ),
        duration_ns=(80 if quick else 300) * MS,
        seed=3,
    )


def fleet_steady(quick=False, tenants=1000):
    """Tenant-scaling unit shard: one flow per tenant, per-tenant limiter.

    The per-entry stage-1 rate (10 pps) puts the enforcement crossover
    inside the tenant axis: at 1k tenants each VNI offers ~120 pps and
    the limiter bites hard; by 50k tenants per-VNI load is under the
    bucket rate and drops fade to hash-collision noise -- the paper's
    "millions of tenants in 2 MB of SRAM" story at laptop scale.
    """
    return ScenarioSpec(
        name="fleet-steady",
        pods=(
            PodSpec(
                name="pod", data_cores=4, per_core_pps=50_000, mode="plb",
                limiter_stage1_pps=10, limiter_stage2_pps=3,
            ),
        ),
        workload=WorkloadSpec(
            kind="cbr", flows=tenants, tenants=tenants, load=0.6,
            stream="traffic",
        ),
        duration_ns=(40 if quick else 200) * MS,
        seed=42,
        # Periodic SimCheckpoints: a killed tenant-scaling shard resumes
        # from its last quiescent 10 ms boundary instead of zero.
        checkpoint_every_ns=10 * MS,
    )


def az_steady(quick=False, servers=2, tenants=10_000):
    """AZ steady state: N ECMP servers, zipf tenants, DPU tier armed.

    The zipf head gives the promotion policy real hot flows (the top
    talkers clear ``threshold_pps`` comfortably at 60% load) while the
    long tail keeps the host tier busy, so both tiers show up in the
    report with meaningful counts at any ``servers`` setting.
    """
    return ScenarioSpec(
        name="az-steady",
        servers=tuple(
            ServerSpec(
                name=f"srv{index}",
                pods=(
                    PodSpec(
                        name=f"srv{index}-pod", data_cores=4,
                        per_core_pps=50_000, mode="plb",
                    ),
                ),
            )
            for index in range(servers)
        ),
        ecmp=EcmpSpec(),
        dpu_tier=DpuTierSpec(),
        workload=WorkloadSpec(
            kind="cbr", flows=tenants, tenants=tenants, load=0.6,
            population="zipf", stream="traffic",
        ),
        duration_ns=(40 if quick else 200) * MS,
        seed=42,
    )


#: name -> factory; listing order is the inventory order.
SCENARIO_FACTORIES = {
    "steady-state-plb": steady_state_plb,
    "microburst-reorder": microburst_reorder,
    "ratelimit-churn": ratelimit_churn,
    "fleet-steady": fleet_steady,
    "az-steady": az_steady,
}


def lookup(registry, name, what):
    """``registry[name]``, or a ``ValueError`` naming every choice.

    The one unknown-name path of every named registry: scenarios,
    sweeps, fault and migration scenarios, experiments.
    """
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown {what} {name!r}; choose from {', '.join(registry)}"
        ) from None


def scenario_spec(name, quick=False, **kwargs):
    """Build the named canonical spec (``kwargs`` go to its factory)."""
    return lookup(SCENARIO_FACTORIES, name, "scenario")(quick=quick, **kwargs)
