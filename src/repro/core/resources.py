"""FPGA latency and resource accounting (Tab. 4 and Tab. 5).

The paper's FPGA: 912,800 LUTs and 265 Mbit of BRAM per card.  Tab. 4
gives per-module RX/TX latency; Tab. 5 gives per-module LUT/BRAM shares.
This module carries those constants, a latency model for the NIC pipeline,
and a bottom-up BRAM estimator for the PLB structures (FIFO + BUF +
BITMAP) and the rate limiter, which the tests check against Tab. 5's
ballpark.
"""

from repro.sim.units import US

FPGA_TOTAL_LUTS = 912_800
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
        return self._sum(0, include)

    def tx_ns(self, include=None):
        return self._sum(1, include)

    def _sum(self, direction, include):
        names = self.modules if include is None else include
        total_us = sum(self.modules[name][direction] for name in names)
        return int(round(total_us * US))

    def module_ns(self, name, direction):
        index = 0 if direction == "rx" else 1
        return int(round(self.modules[name][index] * US))

    @property
    def round_trip_ns(self):
        """Total NIC-added latency (RX + TX, ~8 us in the paper)."""
        return self.rx_ns() + self.tx_ns()


class FpgaResourceModel:
    """Resource accounting against the card's LUT/BRAM budget."""

    def __init__(
        self,
        total_luts=FPGA_TOTAL_LUTS,
        total_bram_mbit=FPGA_TOTAL_BRAM_MBIT,
        module_pct=None,
    ):
        self.total_luts = total_luts
        self.total_bram_mbit = total_bram_mbit
        self.module_pct = dict(
            NIC_MODULE_RESOURCES_PCT if module_pct is None else module_pct
        )

    def luts_used(self, module):
        return int(self.total_luts * self.module_pct[module][0] / 100)

    def bram_mbit_used(self, module):
        return self.total_bram_mbit * self.module_pct[module][1] / 100

    def totals(self):
        """(LUT %, BRAM %) summed over all modules (Tab. 5 bottom row)."""
        lut = sum(pct[0] for pct in self.module_pct.values())
        bram = sum(pct[1] for pct in self.module_pct.values())
        return lut, bram

    def headroom(self):
        """(LUT %, BRAM %) left for the future offloads of §7."""
        lut, bram = self.totals()
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
        return 100.0 * bits / (self.total_bram_mbit * 1_000_000)
