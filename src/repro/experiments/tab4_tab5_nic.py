"""Tab. 4 (NIC pipeline latency) and Tab. 5 (FPGA resource consumption).

Both tables are inputs: :mod:`repro.core.resources` carries their
per-module numbers, and EXPERIMENTS.md's "Cited inputs" lists them with
the tier-1 test that checks each against the paper.  These drivers
measure what the model computes from them:

* Tab. 4 -- the NIC-added latency of one packet through an idle
  simulated pod (RX + TX, ~8 us), which the pipeline must compose from
  the module latencies;
* Tab. 5 -- the PLB's BRAM share counted bottom-up (FIFO + BUF + BITMAP
  bits for 8 queues), against the paper's 5%.
"""

from repro.core.resources import plb_bram_pct
from repro.experiments.common import ExperimentResult
from repro.packet.flows import flow_for_tenant
from repro.packet.packet import Packet
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS, US


def run_latency():
    """The measured NIC-added latency of one unloaded packet."""
    return ExperimentResult(
        "Tab. 4: NIC pipeline latency", [],
        meta={"measured_unloaded_us": round(_measure_unloaded_latency() / US, 2)},
    )


def _measure_unloaded_latency():
    """One packet through an idle pod: NIC latency + one service time."""
    pod_spec = PodSpec(data_cores=1, per_core_pps=1_000_000)
    handle = build(ScenarioSpec(name="scaled-pod", seed=1, pods=(pod_spec,)))
    packet = Packet(flow_for_tenant(1, 0), vni=1)
    handle.pod.ingress(packet)
    handle.run(1 * MS)
    service_ns = handle.pod.chain.expected_service_ns()
    return packet.latency_ns - service_ns


def run_resources():
    """The bottom-up PLB BRAM estimate."""
    estimate_pct = plb_bram_pct()
    return ExperimentResult(
        "Tab. 5: FPGA resource consumption", [],
        meta={"plb_bram_estimate_pct": round(estimate_pct, 2)},
    )
