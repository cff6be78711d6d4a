"""FPGA latency and resource accounting (Tab. 4 and Tab. 5).

The paper's FPGA has 265 Mbit of BRAM per card.  Tab. 4 gives per-module
RX/TX latency; Tab. 5 gives per-module LUT/BRAM shares.  This module
carries those constants (EXPERIMENTS.md cites them as inputs), the NIC
pipeline's latency budget drawn from them, and a bottom-up BRAM estimate
for the PLB structures (FIFO + BUF + BITMAP), which Tab. 5's PLB share
checks.
"""

from repro.sim.units import US

FPGA_TOTAL_BRAM_MBIT = 265

# Tab. 4: per-module (RX, TX) latency in microseconds.
NIC_MODULE_LATENCY_US = {
    "basic_pipeline": (0.58, 0.84),
    "overload_detection": (0.10, 0.0),
    "plb": (0.05, 0.35),
    "dma": (3.17, 2.98),
}

# Tab. 5: per-module (LUT %, BRAM %) consumption.
NIC_MODULE_RESOURCES_PCT = {
    "basic_pipeline": (42.9, 38.2),
    "overload_detection": (2.0, 0.0),
    "plb": (12.6, 5.0),
    "dma": (2.5, 1.3),
}


# The PLB structures of one pod complement, counted bottom-up for Tab. 5.
PLB_REORDER_QUEUES = 8
PLB_FIFO_DEPTH = 4096
PLB_REORDER_INFO_BITS = 64   # PSN + timestamp
PLB_BITMAP_ENTRY_BITS = 13   # valid bit + psn[11:0]
PLB_BUF_ENTRY_BITS = 320     # meta + packet-header descriptor in BUF


def rx_ns():
    """The RX latency budget: Tab. 4's RX column summed, in nanoseconds."""
    return int(round(sum(rx for rx, _ in NIC_MODULE_LATENCY_US.values()) * US))


def module_ns(name, direction):
    """One module's Tab. 4 cell (``direction`` is "rx" or "tx"), in nanoseconds."""
    index = 0 if direction == "rx" else 1
    return int(round(NIC_MODULE_LATENCY_US[name][index] * US))


def headroom():
    """(LUT %, BRAM %) left for the future offloads of §7."""
    lut = sum(pct[0] for pct in NIC_MODULE_RESOURCES_PCT.values())
    bram = sum(pct[1] for pct in NIC_MODULE_RESOURCES_PCT.values())
    return 100.0 - lut, 100.0 - bram


def plb_bram_pct():
    """BRAM share of the PLB structures (FIFO + BITMAP + BUF) of one pod."""
    per_entry = PLB_REORDER_INFO_BITS + PLB_BITMAP_ENTRY_BITS + PLB_BUF_ENTRY_BITS
    bits = PLB_REORDER_QUEUES * PLB_FIFO_DEPTH * per_entry
    return 100.0 * bits / (FPGA_TOTAL_BRAM_MBIT * 1_000_000)
