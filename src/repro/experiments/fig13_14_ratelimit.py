"""Fig. 13/14: tenant overload rate-limiting.

Paper setup: four tenants at 4/3/2/1 Mpps into a PLB pod with 20 Mpps
capacity; tenant 1 bursts to 34 Mpps at t=15 s (total offered 40 Mpps).

* Without the limiter (Fig. 13): the CPU drops indiscriminately; every
  tenant loses ~50% -- the dominant tenant violates the others' SLAs.
* With the two-stage limiter (Fig. 14), stage 1 at 8 Mpps + stage 2 at
  2 Mpps: tenant 1 is clipped to 10 Mpps in the NIC, total CPU load stays
  at 16 Mpps < 20 Mpps, and the other tenants are untouched.

Scaled replay at 1/200 of the paper's rates with the same ratios:
capacity 100 Kpps, tenants 20/15/10/5 Kpps, burst to 170 Kpps,
limiter 40 + 10 Kpps.
"""

from repro.experiments.common import ExperimentResult
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS, SECOND
from repro.workloads.tenants import overload_workloads

SCALE = 1 / 200
CORES = 4
PER_CORE_PPS = 25_000          # capacity 100 Kpps = 20 Mpps x SCALE
BURST_AT_NS = 1 * SECOND
BUCKET_NS = 250 * MS


def run(with_limiter, duration_ns=2 * SECOND, seed=61):
    """One scenario run; returns per-(bucket, tenant) delivered rates."""
    workloads = overload_workloads(burst_at_ns=BURST_AT_NS, scale=SCALE)
    limiter = {}
    if with_limiter:  # the paper's 8 + 2 Mpps, scaled
        limiter = {
            "limiter_stage1_pps": int(8e6 * SCALE),
            "limiter_stage2_pps": int(2e6 * SCALE),
        }
    handle = build(ScenarioSpec(
        name="scaled-pod", seed=seed, duration_ns=duration_ns,
        pods=(PodSpec(data_cores=CORES, per_core_pps=PER_CORE_PPS, mode="plb",
                      rx_capacity=256, **limiter),),
        workload=workloads,
    ))

    buckets = {}  # (bucket_index, vni) -> delivered count

    @handle.subscribe
    def count_delivered(packet, where, outcome):
        if packet.drop_reason is None:
            key = (packet.departure_ns // BUCKET_NS, packet.vni)
            buckets[key] = buckets.get(key, 0) + 1

    handle.run()
    vnis = [workload.first_tenant for workload in workloads]

    rows = []
    bucket_count = duration_ns // BUCKET_NS
    for bucket in range(bucket_count):
        row = {"t_ms": int(bucket * BUCKET_NS / MS)}
        for vni in vnis:
            delivered = buckets.get((bucket, vni), 0)
            row[f"tenant{vni}_kpps"] = round(
                delivered / (BUCKET_NS / SECOND) / 1e3, 1
            )
        row["total_kpps"] = round(
            sum(buckets.get((bucket, vni), 0) for vni in vnis)
            / (BUCKET_NS / SECOND)
            / 1e3,
            1,
        )
        rows.append(row)
    title = "Fig. 14: with" if with_limiter else "Fig. 13: without"
    return ExperimentResult(
        f"{title} tenant overload rate-limiting",
        rows,
        meta={
            "capacity_kpps": CORES * PER_CORE_PPS / 1e3,
            "burst_at_ms": BURST_AT_NS // MS,
            "scale": SCALE,
            "limiter": "8+2 Mpps (scaled)" if with_limiter else "none",
        },
    )
