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
    FpgaResourceModel,
    NIC_MODULE_LATENCY_US,
    NicLatencyModel,
)
from repro.sim.units import US


class TestPlbMeta:
    def test_psn12(self):
        assert PlbMeta(0x1FFF, 0, 0).psn12 == 0xFFF
        assert PlbMeta(4096, 0, 0).psn12 == 0

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


def _tx_ns(model):
    return sum(model.module_ns(name, "tx") for name in model.modules)


class TestLatencyModel:
    def test_tab4_sums(self):
        model = NicLatencyModel()
        assert model.rx_ns() == pytest.approx(3.90 * US, abs=10)
        assert _tx_ns(model) == pytest.approx(4.17 * US, abs=10)
        assert model.rx_ns() + _tx_ns(model) == pytest.approx(8.07 * US, abs=20)

    def test_dma_dominates(self):
        """Tab. 4's observation: most latency is the DMA procedure."""
        model = NicLatencyModel()
        assert model.module_ns("dma", "rx") > model.rx_ns() / 2
        assert model.module_ns("dma", "tx") > _tx_ns(model) / 2

    def test_plb_overhead_is_small(self):
        """PLB + overload detection add only ~0.5 us of the ~8 us total."""
        model = NicLatencyModel()
        extra = (
            model.module_ns("plb", "rx")
            + model.module_ns("plb", "tx")
            + model.module_ns("overload_detection", "rx")
            + model.module_ns("overload_detection", "tx")
        )
        assert extra == pytest.approx(0.5 * US, abs=20)
        assert extra < (model.rx_ns() + _tx_ns(model)) / 10

    def test_subset_sum(self):
        model = NicLatencyModel()
        assert model.rx_ns(include=["dma"]) == model.module_ns("dma", "rx")


class TestResourceModel:
    def test_totals_match_tab5(self):
        lut_free, bram_free = FpgaResourceModel().headroom()
        assert 100.0 - lut_free == pytest.approx(60.0, abs=0.1)
        assert 100.0 - bram_free == pytest.approx(44.5, abs=0.1)

    def test_headroom_for_future_offloads(self):
        """§7: room is reserved for session/crypto/billing offloads."""
        lut_free, bram_free = FpgaResourceModel().headroom()
        assert lut_free >= 40.0
        assert bram_free >= 55.0

    def test_plb_bram_estimate_near_paper(self):
        """Bottom-up FIFO+BUF+BITMAP bits land near Tab. 5's 5%."""
        pct = FpgaResourceModel().plb_bram_pct(queue_count=8)
        assert 3.0 < pct < 7.0

    def test_ratelimiter_fits_leftover_bram(self):
        import random

        from repro.core.ratelimit import TwoStageRateLimiter

        limiter = TwoStageRateLimiter(random.Random(1))
        sram_mbit = limiter.sram_bytes() * 8 / 1e6
        assert sram_mbit < FPGA_TOTAL_BRAM_MBIT * 0.1
