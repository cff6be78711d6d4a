"""Fig. 10: multi-core utilization spread in production, PLB vs RSS.

Two production gateways at ~20% load, one on PLB and one on RSS, sampled
over a week: the across-core standard deviation of CPU utilization is
flat and tiny under PLB, large and jumpy under RSS -- micro-bursts push a
single RSS core up ~50% in under a second.

Scaled replay: a compressed "week" (diurnal load profile) with random
single-flow microbursts, sampled by a
:class:`~repro.metrics.summary.UtilizationSampler`.
"""

from repro.experiments.common import ExperimentResult
from repro.metrics.summary import UtilizationSampler, mean
from repro.packet.flows import flow_for_tenant
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS
from repro.workloads.generators import CbrSource, FlowPopulation, uniform_population
from repro.workloads.traces import schedule_profile, weekly_load_profile

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
    series = {}
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
        series[mode] = stddevs
        rows.append(
            {
                "mode": mode,
                "mean_stddev": round(mean(stddevs), 4),
                "max_stddev": round(max(stddevs), 4),
                "samples": len(stddevs),
            }
        )
    result = ExperimentResult(
        "Fig. 10: per-core utilization stddev over a compressed week",
        rows,
        meta={"cores": CORES, "paper": "RSS stddev fluctuates far above PLB"},
    )
    result.series = series
    return result


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
    pod_spec = PodSpec(data_cores=CORES, per_core_pps=per_core_pps, mode=mode)
    handle = build(ScenarioSpec(name="scaled-pod", seed=31, pods=(pod_spec,)))
    base_rate = int(average_load * per_core_pps * CORES)
    background = uniform_population(800, tenants=80)
    source = CbrSource(
        handle.sim,
        handle.rngs.stream("background"),
        handle.pod.ingress,
        background,
        rate_pps=base_rate,
    )
    # Diurnal modulation compressed so that one day lasts 1/7 of the run.
    day_fraction = duration_ns / 7
    profile = weekly_load_profile(base_rate, samples_per_day=12)
    compression = day_fraction / 86400.0 / 1e9
    schedule_profile(handle.sim, source, profile, time_compression=compression)

    # Single-flow microbursts: the thing RSS cannot absorb.
    burst_rate = int(burst_core_fraction * per_core_pps)
    start = burst_gap_ns
    index = 0
    while start < duration_ns:
        flow = flow_for_tenant(8000 + index, index)
        population = FlowPopulation([flow], vnis=[8000 + index])
        burst = CbrSource(
            handle.sim,
            handle.rngs.stream(f"burst{index}"),
            handle.pod.ingress,
            population,
            rate_pps=0,
        )
        handle.sim.schedule_at(start, burst.set_rate, burst_rate)
        handle.sim.schedule_at(start + burst_duration_ns, burst.set_rate, 0)
        start += burst_duration_ns + burst_gap_ns
        index += 1

    sampler = UtilizationSampler(handle.sim, handle.pod.cores, sample_period_ns)
    handle.run(duration_ns)
    sampler.stop()
    return sampler.stddev_series
