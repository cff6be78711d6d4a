"""Property-based tests on the rate limiter's invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ratelimit import (
    RateLimitDecision,
    TokenBucket,
    TwoStageRateLimiter,
    _HitterSampler,
)
from repro.packet import flows
from repro.packet.hashing import crc32_vni_hash
from repro.sim.units import MS, SECOND


def _randrange_observe(sampler, vni, now_ns):
    """``_HitterSampler.observe`` with its sample drawn by ``randrange``."""
    if now_ns - sampler._window_start > sampler.window_ns:
        sampler._counts.clear()
        sampler._window_start = now_ns
    if sampler.rng.randrange(sampler.sample_rate) != 0:
        return False
    count = sampler._counts.get(vni, 0) + 1
    sampler._counts[vni] = count
    return count >= sampler.threshold


def _bucket_level_admit(limiter, vni, now_ns):
    """The §4.3 pipeline spelled with ``TokenBucket.allow`` table by table,
    the meter index hashed per packet and the sample drawn by
    ``randrange``: the reference that ``TwoStageRateLimiter.admit``
    inlines."""
    if vni in limiter._bypass:
        decision = RateLimitDecision.BYPASS
    elif vni in limiter._pre_meter:
        decision = (RateLimitDecision.ALLOW_PRE if limiter._pre_meter[vni].allow(now_ns)
                    else RateLimitDecision.DROP_PRE)
    else:
        color_index = vni % limiter.color_entries
        if color_index not in limiter._color:
            limiter._color[color_index] = TokenBucket(limiter.stage1_rate_pps)
        if limiter._color[color_index].allow(now_ns):
            decision = RateLimitDecision.ALLOW
        else:
            meter_index = crc32_vni_hash(vni, seed=0x3E7E) % limiter.meter_entries
            if meter_index not in limiter._meter:
                limiter._meter[meter_index] = TokenBucket(limiter.stage2_rate_pps)
            if limiter._meter[meter_index].allow(now_ns):
                decision = RateLimitDecision.ALLOW_MARKED
            else:
                decision = RateLimitDecision.DROP_METER
                if limiter.auto_promote and _randrange_observe(limiter._sampler, vni, now_ns):
                    limiter.promote_heavy_hitter(vni)
    limiter.decisions[decision] += 1
    return decision


class TestTokenBucketProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.integers(100, 1_000_000),
        burst=st.integers(1, 1000),
        gaps_us=st.lists(st.integers(0, 100_000), min_size=1, max_size=300),
    )
    def test_admissions_never_exceed_rate_plus_burst(self, rate, burst, gaps_us):
        """Hard bound: admitted <= burst + rate * elapsed, at any prefix."""
        bucket = TokenBucket(rate, burst=burst)
        now = 0
        admitted = 0
        for gap in gaps_us:
            now += gap * 1000
            if bucket.allow(now):
                admitted += 1
            bound = burst + rate * now / SECOND
            assert admitted <= bound + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(rate=st.integers(1000, 100_000))
    def test_full_utilization_achievable(self, rate):
        """Offering exactly the rate, nothing is dropped (work conserving)."""
        bucket = TokenBucket(rate, burst=2)
        interval = SECOND // rate
        admitted = sum(
            1 for index in range(500) if bucket.allow(index * interval)
        )
        assert admitted == 500

    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.integers(100, 10_000),
        offered_factor=st.floats(1.5, 20.0),
    )
    def test_sustained_overload_clips_to_rate(self, rate, offered_factor):
        bucket = TokenBucket(rate, burst=1)
        offered = int(rate * offered_factor)
        interval = max(1, SECOND // offered)
        horizon = 2 * SECOND
        admitted = 0
        now = 0
        while now < horizon:
            if bucket.allow(now):
                admitted += 1
            now += interval
        achieved = admitted / (horizon / SECOND)
        assert achieved <= rate * 1.1 + 2


class TestTwoStageProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        vnis=st.lists(st.integers(0, 100_000), min_size=1, max_size=6, unique=True),
        pps=st.integers(100, 5_000),
    )
    def test_under_limit_tenants_never_dropped(self, vnis, pps):
        """Any set of tenants each below the stage-1 rate, with distinct
        color entries, is never dropped."""
        limiter = TwoStageRateLimiter(
            random.Random(0),
            stage1_rate_pps=10_000,
            stage2_rate_pps=1_000,
            color_entries=4096,
        )
        distinct = {vni % 4096 for vni in vnis}
        if len(distinct) != len(vnis):
            return  # color collisions are a different property
        interval = SECOND // pps
        for step in range(200):
            now = step * interval
            for vni in vnis:
                assert limiter.admit(vni, now).allowed

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flood_clipped_regardless_of_vni(self, seed):
        rng = random.Random(seed)
        vni = rng.randrange(1 << 24)
        limiter = TwoStageRateLimiter(
            rng, stage1_rate_pps=1000, stage2_rate_pps=200, auto_promote=False
        )
        admitted = 0
        interval = SECOND // 50_000
        now = 0
        while now < SECOND:
            if limiter.admit(vni, now).allowed:
                admitted += 1
            now += interval
        # Ceiling = stage1 + stage2 (+ bucket bursts).
        assert admitted <= 1200 * 1.1

    @settings(max_examples=25, deadline=None)
    @given(tenants=st.integers(1, 2_000_000))
    def test_sram_budget_is_tenant_independent(self, tenants):
        """The whole point of the design: SRAM does not grow with tenants."""
        limiter = TwoStageRateLimiter(random.Random(0))
        assert limiter.sram_bytes() < 2.2 * (1 << 20)
        assert TwoStageRateLimiter.naive_sram_bytes(tenants) == tenants * 208

    @pytest.mark.parametrize("sample_rate", [1, 2, 3, 100, 128])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_admit_is_the_bucket_level_pipeline_bit_for_bit(self, sample_rate, seed):
        """Decisions, token floats, promotions and sampler draws all match
        ``TokenBucket.allow`` applied through the three tables.  Eight
        tenants at ~50 kpps on four color and three meter entries overload
        both stages, and a sampler with a threshold of 2 promotes into a
        300 pps pre_meter, so every decision occurs; 400 arrivals leave
        token floats that any reordering of the refill arithmetic would
        move.  An SRAM scrub midway wipes the buckets but not the meter
        index memo, which holds three of the eight VNIs here, so both its
        hit and its miss path run; each snapshot carries the sampler rng."""
        def limiter():
            built = TwoStageRateLimiter(
                random.Random(seed), stage1_rate_pps=2_000, stage2_rate_pps=500,
                color_entries=4, meter_entries=3, sample_rate=sample_rate,
                pre_rate_pps=300,
            )
            built._sampler.threshold = 2
            built.add_bypass(7)
            return built

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flows, "FLOW_MEMO_CAPACITY", 3)
            inlined, reference = limiter(), limiter()
            arrivals = random.Random(seed)
            now = 0
            for arrival in range(400):
                if arrival == 200:
                    assert inlined.corrupt_sram() == reference.corrupt_sram()
                    assert inlined.checkpoint() == reference.checkpoint()
                now += arrivals.randrange(40_000)
                vni = arrivals.randrange(8)
                assert inlined.admit(vni, now) is _bucket_level_admit(reference, vni, now)
            assert len(inlined._meter_slot) == 3
        assert inlined.checkpoint() == reference.checkpoint()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sampler_draw_is_randrange(self, seed):
        """``observe`` samples with ``getrandbits`` in its own frame: for
        every ``n`` in 1..1000 the draw is ``randrange(n) == 0`` and it
        leaves the stream where ``randrange(n)`` leaves it."""
        for sample_rate in range(1, 1001):
            sampler = _HitterSampler(random.Random(seed), sample_rate=sample_rate,
                                     threshold=1)
            reference = random.Random(seed)
            for _ in range(3):
                sampled = sampler.observe(1, 0)
                assert sampled == (reference.randrange(sample_rate) == 0)
                assert sampler.rng.getstate() == reference.getstate()

    def test_sampler_rejects_a_rate_below_one(self):
        with pytest.raises(ValueError, match="sample rate"):
            _HitterSampler(random.Random(0), sample_rate=0)
