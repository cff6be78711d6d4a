"""Tab. 4 (NIC pipeline latency) and Tab. 5 (FPGA resource consumption).

Tab. 4's constants are inputs to the latency model; this driver both
echoes the per-module table and *measures* the NIC-added latency through
the simulation (an unloaded pod, so no queueing) to confirm the pipeline
composition adds up to the same RX+TX total (~8 us).

Tab. 5 echoes the resource shares and cross-checks the PLB share with the
bottom-up BRAM estimate (FIFO + BUF + BITMAP bits for 8 queues).
"""

from repro.core.resources import (
    FPGA_TOTAL_BRAM_MBIT,
    FPGA_TOTAL_LUTS,
    FpgaResourceModel,
    NIC_MODULE_LATENCY_US,
    NIC_MODULE_RESOURCES_PCT,
    NicLatencyModel,
)
from repro.experiments.common import ExperimentResult
from repro.packet.flows import flow_for_tenant
from repro.packet.packet import Packet
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS, US


def run_latency(measure=True):
    """Tab. 4 rows plus a measured unloaded-pipeline latency."""
    model = NicLatencyModel()
    rows = []
    for module, (rx_us, tx_us) in NIC_MODULE_LATENCY_US.items():
        rows.append({"module": module, "rx_us": rx_us, "tx_us": tx_us})
    rows.append(
        {
            "module": "Sum",
            "rx_us": round(model.rx_ns() / US, 2),
            "tx_us": round(model.tx_ns() / US, 2),
        }
    )
    meta = {"round_trip_us": round(model.round_trip_ns / US, 2)}
    if measure:
        meta["measured_unloaded_us"] = round(_measure_unloaded_latency() / US, 2)
    return ExperimentResult("Tab. 4: NIC pipeline latency", rows, meta=meta)


def _measure_unloaded_latency():
    """One packet through an idle pod: NIC latency + one service time."""
    pod_spec = PodSpec(data_cores=1, per_core_pps=1_000_000)
    handle = build(ScenarioSpec(name="scaled-pod", seed=1, pods=(pod_spec,)))
    packet = Packet(flow_for_tenant(1, 0), vni=1)
    handle.pod.ingress(packet)
    handle.run(1 * MS)
    service_ns = handle.pod.chain.expected_service_ns()
    return packet.latency_ns - service_ns


def run_resources(reorder_queues=8):
    """Tab. 5 rows plus the bottom-up PLB BRAM estimate."""
    model = FpgaResourceModel()
    rows = []
    for module, (lut_pct, bram_pct) in NIC_MODULE_RESOURCES_PCT.items():
        rows.append(
            {
                "module": module,
                "lut_pct": lut_pct,
                "bram_pct": bram_pct,
                "luts": model.luts_used(module),
                "bram_mbit": round(model.bram_mbit_used(module), 1),
            }
        )
    lut_total, bram_total = model.totals()
    rows.append(
        {
            "module": "Sum",
            "lut_pct": round(lut_total, 1),
            "bram_pct": round(bram_total, 1),
            "luts": sum(model.luts_used(m) for m in NIC_MODULE_RESOURCES_PCT),
            "bram_mbit": round(
                sum(model.bram_mbit_used(m) for m in NIC_MODULE_RESOURCES_PCT), 1
            ),
        }
    )
    estimate_pct = model.plb_bram_pct(queue_count=reorder_queues)
    return ExperimentResult(
        "Tab. 5: FPGA resource consumption",
        rows,
        meta={
            "fpga_luts": FPGA_TOTAL_LUTS,
            "fpga_bram_mbit": FPGA_TOTAL_BRAM_MBIT,
            "plb_bram_estimate_pct": round(estimate_pct, 2),
            "plb_bram_paper_pct": 5.0,
        },
    )
