"""Fig. 11: PLB latency distribution in production.

Four production pods -- A (20% load), B (17%), C (6%), D (5%) -- show:
over 99% of packet latencies below 30 us, an exponentially decaying tail,
more 30-100 us mass on the higher-loaded pods, and a disorder rate around
1e-5 (packets exceeding the 100 us PLB timeout).

Scaled replay: one pod per load level with the software-stack jitter
model on (rare latency spikes) and Poisson arrivals.
"""

from repro.cpu.service import JitterModel
from repro.experiments.common import ExperimentResult
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim.units import MS, US

POD_LOADS = {"A": 0.20, "B": 0.17, "C": 0.06, "D": 0.05}
CORES = 4


def run(
    per_core_pps=200_000,
    duration_ns=400 * MS,
    spike_probability=0.0015,
    slow_branch_probability=3e-5,
    slow_branch_ns=200 * US,
):
    rows = []
    for pod_name, load in POD_LOADS.items():
        rows.append(
            _run_pod(
                pod_name,
                load,
                per_core_pps,
                duration_ns,
                spike_probability,
                slow_branch_probability,
                slow_branch_ns,
            )
        )
    return ExperimentResult(
        "Fig. 11: PLB latency distribution by pod load",
        rows,
        meta={
            "paper": ">99% below 30us; disorder ~1e-5; tail grows with load",
            "plb_timeout_us": 100,
        },
    )


def _run_pod(
    pod_name,
    load,
    per_core_pps,
    duration_ns,
    spike_probability,
    slow_branch_probability,
    slow_branch_ns,
):
    handle = build(ScenarioSpec(
        name="scaled-pod", seed=41, duration_ns=duration_ns,
        pods=(PodSpec(data_cores=CORES, per_core_pps=per_core_pps, mode="plb"),),
        workload=WorkloadSpec(
            kind="poisson", flows=600, tenants=60,
            rate_pps=int(load * per_core_pps * CORES),
        ),
    ))
    # The one model a spec does not state: each pod's jitter on its own
    # stream.  The rare slow branch (beyond the 100 us PLB timeout) is
    # what makes the ~1e-5 disorder rate of the paper's production pods.
    jitter = JitterModel(
        handle.rngs.stream(f"jitter.{pod_name}"),
        spike_probability=spike_probability,
        spike_mean_ns=12 * US,
        slow_branch_probability=slow_branch_probability,
        slow_branch_ns=slow_branch_ns,
    )
    for core in handle.pod.cores:
        core.jitter = jitter
    handle.run()
    histogram = handle.pod.latency_histogram
    stats = handle.pod.reorder_stats
    return {
        "pod": pod_name,
        "load_pct": int(load * 100),
        "below_30us": round(histogram.fraction_below(30 * US), 5),
        "in_30_100us": round(
            histogram.fraction_below(100 * US) - histogram.fraction_below(30 * US), 5
        ),
        "p999_us": round(histogram.percentile(0.999) / US, 1),
        "disorder_rate": stats.disorder_rate(),
        "packets": histogram.count,
    }
