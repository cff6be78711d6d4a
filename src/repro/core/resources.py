"""FPGA latency and resource accounting (Tab. 4 and Tab. 5).

The paper's FPGA has 265 Mbit of BRAM per card.  Tab. 4 gives per-module
RX/TX latency; Tab. 5 gives per-module LUT/BRAM shares.  This module
carries those constants (EXPERIMENTS.md cites them as inputs), a latency
model for the NIC pipeline, and a bottom-up BRAM estimator for the PLB
structures (FIFO + BUF + BITMAP), which Tab. 5's PLB share checks.
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


class NicLatencyModel:
    """Per-direction latency budget assembled from Tab. 4's modules."""

    def __init__(self, modules=None):
        self.modules = dict(NIC_MODULE_LATENCY_US if modules is None else modules)

    def rx_ns(self, include=None):
        names = self.modules if include is None else include
        return int(round(sum(self.modules[name][0] for name in names) * US))

    def module_ns(self, name, direction):
        index = 0 if direction == "rx" else 1
        return int(round(self.modules[name][index] * US))


class FpgaResourceModel:
    """Resource accounting against the card's BRAM budget."""

    @staticmethod
    def headroom():
        """(LUT %, BRAM %) left for the future offloads of §7."""
        lut = sum(pct[0] for pct in NIC_MODULE_RESOURCES_PCT.values())
        bram = sum(pct[1] for pct in NIC_MODULE_RESOURCES_PCT.values())
        return 100.0 - lut, 100.0 - bram

    # -- bottom-up estimates -------------------------------------------

    @staticmethod
    def plb_bram_bits(
        queue_count=8,
        depth=4096,
        reorder_info_bits=64,     # PSN + timestamp
        bitmap_entry_bits=13,     # valid bit + psn[11:0]
        buf_entry_bits=320,       # meta + packet-header descriptor in BUF
    ):
        """BRAM bits needed by the PLB structures for one pod complement."""
        per_queue = depth * (reorder_info_bits + bitmap_entry_bits + buf_entry_bits)
        return queue_count * per_queue

    def plb_bram_pct(self, **kwargs):
        bits = self.plb_bram_bits(**kwargs)
        return 100.0 * bits / (FPGA_TOTAL_BRAM_MBIT * 1_000_000)
