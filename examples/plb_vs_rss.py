#!/usr/bin/env python3
"""PLB vs RSS under a heavy hitter (the Fig. 8 story).

Three data cores at 10% background load; one flow ramps to 130% of a
single core's capacity.  RSS pins the flow to one core, which melts;
PLB sprays it across all three and nothing drops.

Run:  python examples/plb_vs_rss.py
"""

from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim import MS

PER_CORE_PPS = 100_000
CORES = 3


def run_mode(mode, hitter_fraction):
    duration = 200 * MS
    handle = build(ScenarioSpec(
        name="scaled-pod", seed=5, duration_ns=duration,
        pods=(PodSpec(data_cores=CORES, per_core_pps=PER_CORE_PPS, mode=mode),),
        workload=(
            # 500 background flows over 50 tenants at 10% load...
            WorkloadSpec(flows=500, tenants=50, stream="bg",
                         rate_pps=int(0.1 * PER_CORE_PPS * CORES)),
            # ...and one heavy-hitter flow of tenant 999.
            WorkloadSpec(flows=1, tenants=1, first_tenant=999, stream="hh",
                         rate_pps=int(hitter_fraction * PER_CORE_PPS)),
        ),
    )).run()
    utils = handle.pod.core_utilizations(duration)
    offered = int(0.1 * PER_CORE_PPS * CORES) + int(hitter_fraction * PER_CORE_PPS)
    delivered = handle.pod.transmitted() / (duration / 1e9)
    loss = max(0.0, 1 - delivered / offered)
    return utils, loss


def main():
    print(f"{CORES} cores, 10% background, heavy hitter at 130% of one core\n")
    for mode in ("rss", "plb"):
        utils, loss = run_mode(mode, hitter_fraction=1.3)
        print(f"{mode.upper():>4}  loss={loss:.1%}")
        for i, u in enumerate(utils):
            print(f"      core{i} |{'#' * int(u * 40):<40}| {u:.0%}")
        print()
    print("RSS: the hitter lands on one core -> overload and loss.")
    print("PLB: the same flow is sprayed packet-by-packet -> even load, no loss,")
    print("     and the reorder engine still delivers it in order.")


if __name__ == "__main__":
    main()
