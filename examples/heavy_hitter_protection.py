#!/usr/bin/env python3
"""Tenant overload protection demo (the Fig. 13/14 scenario, condensed).

Four tenants share a GW pod; tenant 1 suddenly bursts to 17x the pod's
fair share.  Without the two-stage rate limiter everyone's SLA breaks;
with it, tenant 1 is clipped in the NIC pipeline and the others never
notice.

Run:  python examples/heavy_hitter_protection.py
"""

from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim import MS, SECOND
from repro.workloads.tenants import overload_workloads

SCALE = 1 / 200  # paper rates are tens of Mpps; run at hundreds of Kpps


def run_scenario(with_limiter):
    limiter = {}
    if with_limiter:
        limiter = {
            "limiter_stage1_pps": int(8e6 * SCALE),   # paper: 8 Mpps
            "limiter_stage2_pps": int(2e6 * SCALE),   # paper: 2 Mpps
        }
    handle = build(ScenarioSpec(
        name="scaled-pod", seed=7,
        pods=(PodSpec(data_cores=4, per_core_pps=25_000, rx_capacity=256, **limiter),),
        # Four tenants at 20/15/10/5 Kpps; tenant 1 bursts to 170 Kpps.
        workload=overload_workloads(burst_at_ns=500 * MS, scale=SCALE),
    ))
    counts = {}                        # delivered packets per tenant VNI

    @handle.subscribe
    def count_delivered(packet, where, outcome):
        if packet.drop_reason is None:
            counts[packet.vni] = counts.get(packet.vni, 0) + 1

    handle.run(500 * MS)           # steady state
    before = dict(counts)
    handle.run(1 * SECOND)         # tenant 1 bursting
    after = {vni: counts.get(vni, 0) - before.get(vni, 0) for vni in counts}

    label = "WITH two-stage limiter" if with_limiter else "WITHOUT limiter"
    print(f"\n--- {label} ---")
    print(f"{'tenant':>8} {'offered kpps':>14} {'delivered kpps':>16}")
    offered = {1: 170, 2: 15, 3: 10, 4: 5}
    for vni in sorted(after):
        print(f"{vni:>8} {offered[vni]:>14} {after[vni] / 1000:>16.1f}")


def main():
    print("GW pod capacity: 100 Kpps (scaled from the paper's 20 Mpps)")
    print("tenant 1 bursts from 20 to 170 Kpps at t=0.5s (paper: 4 -> 34 Mpps)")
    run_scenario(with_limiter=False)
    run_scenario(with_limiter=True)
    print("\nWithout the limiter the burst starves every tenant; with it,")
    print("tenant 1 is clipped to 50 Kpps in the NIC and the rest are whole.")


if __name__ == "__main__":
    main()
