"""PLB meta header and FPGA resource/latency model tests."""

import pytest

from repro.core.meta import (
    HEAD_PLACEMENT_THROUGHPUT_FACTOR,
    MetaPlacement,
    PlbMeta,
    placement_throughput_factor,
)
from repro.core.resources import (
    FPGA_TOTAL_BRAM_MBIT,
    NIC_MODULE_LATENCY_US,
    headroom,
    module_ns,
    plb_bram_pct,
    rx_ns,
)
from repro.sim.units import US


class TestPlbMeta:
    def test_flags_default_off_and_no_attribute_dict(self):
        meta = PlbMeta(psn=42, ordq=1, timestamp_ns=777)
        assert (meta.drop, meta.epoch) == (False, 0)
        meta.drop = True  # the GW pod flags an explicit drop in place
        assert meta.drop
        # One meta is built per sprayed packet: slots only, no per-object dict.
        assert not hasattr(meta, "__dict__")
        with pytest.raises(AttributeError):
            meta.payload = b""


class TestPlacementModel:
    def test_tail_is_free(self):
        assert placement_throughput_factor(MetaPlacement.TAIL) == 1.0

    def test_head_costs_33_6_percent(self):
        factor = placement_throughput_factor(MetaPlacement.HEAD)
        assert factor == pytest.approx(0.664)
        assert factor == HEAD_PLACEMENT_THROUGHPUT_FACTOR


def _tx_ns():
    return sum(module_ns(name, "tx") for name in NIC_MODULE_LATENCY_US)


class TestLatencyModel:
    def test_tab4_sums(self):
        assert rx_ns() == pytest.approx(3.90 * US, abs=10)
        assert _tx_ns() == pytest.approx(4.17 * US, abs=10)
        assert rx_ns() + _tx_ns() == pytest.approx(8.07 * US, abs=20)

    def test_dma_dominates(self):
        """Tab. 4's observation: most latency is the DMA procedure."""
        assert module_ns("dma", "rx") > rx_ns() / 2
        assert module_ns("dma", "tx") > _tx_ns() / 2

    def test_plb_overhead_is_small(self):
        """PLB + overload detection add only ~0.5 us of the ~8 us total."""
        extra = (
            module_ns("plb", "rx")
            + module_ns("plb", "tx")
            + module_ns("overload_detection", "rx")
            + module_ns("overload_detection", "tx")
        )
        assert extra == pytest.approx(0.5 * US, abs=20)
        assert extra < (rx_ns() + _tx_ns()) / 10

    @pytest.mark.parametrize(
        "name,direction,expected_ns",
        [
            ("basic_pipeline", "rx", 580),
            ("basic_pipeline", "tx", 840),
            ("overload_detection", "rx", 100),
            ("overload_detection", "tx", 0),
            ("plb", "rx", 50),
            ("plb", "tx", 350),
            ("dma", "rx", 3170),
            ("dma", "tx", 2980),
        ],
    )
    def test_module_ns_is_the_tab4_cell(self, name, direction, expected_ns):
        """Each module's RX and TX cell of Tab. 4, in whole nanoseconds."""
        assert module_ns(name, direction) == expected_ns


class TestResourceModel:
    def test_totals_match_tab5(self):
        lut_free, bram_free = headroom()
        assert 100.0 - lut_free == pytest.approx(60.0, abs=0.1)
        assert 100.0 - bram_free == pytest.approx(44.5, abs=0.1)

    def test_headroom_for_future_offloads(self):
        """§7: room is reserved for session/crypto/billing offloads."""
        lut_free, bram_free = headroom()
        assert lut_free >= 40.0
        assert bram_free >= 55.0

    def test_plb_bram_estimate_near_paper(self):
        """Bottom-up FIFO+BUF+BITMAP bits land near Tab. 5's 5%."""
        pct = plb_bram_pct()
        assert 3.0 < pct < 7.0

    def test_ratelimiter_fits_leftover_bram(self):
        import random

        from repro.core.ratelimit import TwoStageRateLimiter

        limiter = TwoStageRateLimiter(random.Random(1))
        sram_mbit = limiter.sram_bytes() * 8 / 1e6
        assert sram_mbit < FPGA_TOTAL_BRAM_MBIT * 0.1
