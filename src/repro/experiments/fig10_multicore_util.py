"""Fig. 10: multi-core utilization spread in production, PLB vs RSS.

Two production gateways at ~20% load, one on PLB and one on RSS, sampled
over a week: the across-core standard deviation of CPU utilization is
flat and tiny under PLB, large and jumpy under RSS -- micro-bursts push a
single RSS core up ~50% in under a second.

Scaled replay: a compressed "week" (diurnal load profile) with random
single-flow microbursts, sampled by a
:class:`~repro.metrics.summary.UtilizationSampler`.
"""

from repro.experiments.common import ExperimentResult, burst_workloads
from repro.metrics.summary import UtilizationSampler, mean
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim.units import MS
from repro.workloads.traces import compressed_schedule, weekly_load_profile

CORES = 8


def run(
    per_core_pps=100_000,
    average_load=0.20,
    duration_ns=700 * MS,  # compressed week: 100 ms per "day"
    sample_period_ns=10 * MS,
    burst_core_fraction=0.5,
    burst_duration_ns=3 * MS,
    burst_gap_ns=25 * MS,
):
    rows = []
    for mode in ("rss", "plb"):
        stddevs = _run_mode(
            mode,
            per_core_pps,
            average_load,
            duration_ns,
            sample_period_ns,
            burst_core_fraction,
            burst_duration_ns,
            burst_gap_ns,
        )
        rows.append(
            {
                "mode": mode,
                "mean_stddev": round(mean(stddevs), 4),
                "max_stddev": round(max(stddevs), 4),
                "samples": len(stddevs),
            }
        )
    return ExperimentResult(
        "Fig. 10: per-core utilization stddev over a compressed week",
        rows,
        meta={"cores": CORES, "paper": "RSS stddev fluctuates far above PLB"},
    )


def _run_mode(
    mode,
    per_core_pps,
    average_load,
    duration_ns,
    sample_period_ns,
    burst_core_fraction,
    burst_duration_ns,
    burst_gap_ns,
):
    base_rate = int(average_load * per_core_pps * CORES)
    # Diurnal modulation compressed so that one day lasts 1/7 of the run.
    day_fraction = duration_ns / 7
    profile = weekly_load_profile(base_rate, samples_per_day=12)
    compression = day_fraction / 86400.0 / 1e9
    background = WorkloadSpec(
        flows=800, tenants=80, rate_pps=base_rate, stream="background",
        schedule=compressed_schedule(profile, compression),
    )
    # Single-flow microbursts: the thing RSS cannot absorb.
    bursts = burst_workloads(
        8000, int(burst_core_fraction * per_core_pps), burst_duration_ns,
        burst_gap_ns, duration_ns,
    )
    handle = build(ScenarioSpec(
        name="scaled-pod", seed=31, duration_ns=duration_ns,
        pods=(PodSpec(data_cores=CORES, per_core_pps=per_core_pps, mode=mode),),
        workload=(background, *bursts),
    ))
    sampler = UtilizationSampler(handle.sim, handle.pod.cores, sample_period_ns)
    handle.run()
    return sampler.stddev_series
