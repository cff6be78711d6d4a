"""Tab. 3: overall forwarding performance per gateway service.

Paper setup: one Albatross server, two 46-core GW pods per service (44
data + 2 ctrl cores each, 88 data cores total), 500K flows of 256B
packets.  Paper numbers (Mpps): VPC-VPC 128.8, VPC-Internet 81.6,
VPC-IDC 119.4, VPC-CloudService 126.3.

Two modes:

* **analytic** (default) -- per-core rate from the calibrated service
  chains at the measured ~35% L3 hit rate, times 88 data cores;
* **simulated** -- a scaled-down pod driven at saturation through the full
  NIC pipeline, per-core rate extrapolated back to 88 cores.  This
  validates that queueing/reordering overheads do not eat the analytic
  rate.
"""

from repro.cpu.service import ServiceChain, standard_services
from repro.experiments.common import ExperimentResult
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim.units import MS

PAPER_MPPS = {
    "VPC-VPC": 128.8,
    "VPC-Internet": 81.6,
    "VPC-IDC": 119.4,
    "VPC-CloudService": 126.3,
}

DATA_CORES_PER_SERVER = 88  # two pods x 44 data cores


def run(hit_rate=0.35, simulate=False, sim_cores=4, sim_duration_ns=40 * MS):
    """Compute (and optionally validate by simulation) the Tab. 3 row set."""
    rows = []
    for name, service in standard_services().items():
        chain = ServiceChain(service, assumed_hit_rate=hit_rate)
        per_core_mpps = chain.per_core_mpps()
        total_mpps = per_core_mpps * DATA_CORES_PER_SERVER
        row = {
            "service": name,
            "lookups": service.lookup_count,
            "per_core_mpps": round(per_core_mpps, 3),
            "albatross_mpps": round(total_mpps, 1),
            "paper_mpps": PAPER_MPPS[name],
        }
        if simulate:
            row["sim_mpps"] = round(
                _simulate_service(name, sim_cores, sim_duration_ns)
                * DATA_CORES_PER_SERVER,
                1,
            )
        rows.append(row)
    return ExperimentResult(
        "Tab. 3: Albatross throughput by gateway service",
        rows,
        meta={"data_cores": DATA_CORES_PER_SERVER, "hit_rate": hit_rate},
    )


def _simulate_service(service_name, cores, duration_ns):
    """Saturate a small pod running the real service; per-core Mpps."""
    handle = build(ScenarioSpec(
        name="tab3",
        pods=(PodSpec(name="pod", data_cores=cores, service=service_name),),
        # 20% over capacity: saturation.
        workload=WorkloadSpec(flows=2000, tenants=20, load=1.2),
        duration_ns=duration_ns,
        seed=7,
    )).run()
    return handle.pod.throughput_mpps() / cores
