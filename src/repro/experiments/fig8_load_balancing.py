"""Fig. 8: load-balancing comparison under a heavy hitter.

Paper setup: 500K background flows at 10% single-core utilization, three
forwarding cores, one heavy-hitter flow swept from 0 to 130% of a single
core's maximum throughput.  RSS pins the hitter to core 1, which
overloads and drops; PLB spreads it across all three cores and survives.

Scaled setup: identical ratios at ~0.1 Mpps per core.
"""

from repro.experiments.common import ExperimentResult
from repro.packet.flows import flow_for_tenant
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS
from repro.workloads.generators import CbrSource, FlowPopulation, uniform_population

CORES = 3
BACKGROUND_UTILIZATION = 0.10


def run(
    hitter_fractions=(0.0, 0.25, 0.5, 0.75, 1.0, 1.3),
    per_core_pps=100_000,
    duration_ns=200 * MS,
    background_flows=500,
):
    """Sweep the heavy hitter's rate for both modes; returns one row per
    (mode, fraction) with per-core utilization spread and loss rate."""
    rows = []
    for mode in ("rss", "plb"):
        for fraction in hitter_fractions:
            rows.append(
                _run_point(mode, fraction, per_core_pps, duration_ns, background_flows)
            )
    return ExperimentResult(
        "Fig. 8: heavy-hitter load balancing (RSS vs PLB)",
        rows,
        meta={
            "cores": CORES,
            "background_utilization": BACKGROUND_UTILIZATION,
            "paper": "RSS overloads core 1 and drops; PLB spreads evenly",
        },
    )


def _run_point(mode, hitter_fraction, per_core_pps, duration_ns, background_flows):
    pod_spec = PodSpec(data_cores=CORES, per_core_pps=per_core_pps, mode=mode)
    handle = build(ScenarioSpec(name="scaled-pod", seed=11, pods=(pod_spec,)))
    background_rate = int(BACKGROUND_UTILIZATION * per_core_pps * CORES)
    background = uniform_population(background_flows, tenants=50)
    CbrSource(
        handle.sim,
        handle.rngs.stream("background"),
        handle.pod.ingress,
        background,
        rate_pps=background_rate,
    )
    hitter_rate = int(hitter_fraction * per_core_pps)
    if hitter_rate > 0:
        hitter_flow = FlowPopulation([flow_for_tenant(999, 0)], vnis=[999])
        CbrSource(
            handle.sim,
            handle.rngs.stream("hitter"),
            handle.pod.ingress,
            hitter_flow,
            rate_pps=hitter_rate,
        )
    handle.run(duration_ns)

    utilizations = handle.pod.core_utilizations(duration_ns)
    offered = background_rate + hitter_rate
    delivered = handle.pod.transmitted() * 1e9 / duration_ns
    loss = max(0.0, 1.0 - delivered / offered) if offered else 0.0
    return {
        "mode": mode,
        "hitter_pct_of_core": int(hitter_fraction * 100),
        "core_util_min": round(min(utilizations), 3),
        "core_util_max": round(max(utilizations), 3),
        "loss_rate": round(loss, 4),
        "rx_drops": sum(core.rx_dropped for core in handle.pod.cores),
    }
