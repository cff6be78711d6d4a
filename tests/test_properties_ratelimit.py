"""Property-based tests on the rate limiter's invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ratelimit import TwoStageRateLimiter, _HitterSampler
from repro.packet import flows
from repro.sim.units import MS, SECOND
from tests.reference_limiter import ReferenceLimiter, TokenBucket


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
        """Decisions, promotions, sampler draws and every row's
        ``(tokens, last_ns)`` match ``tests/reference_limiter.py``'s
        bucket per slot.  Eight tenants at ~50 kpps on four color and
        three meter entries overload both stages, and a sampler with a
        threshold of 2 promotes into a 300 pps pre_meter, so every
        decision occurs; 400 arrivals leave token floats that any
        reordering of the refill arithmetic would move.  An SRAM scrub
        midway wipes the rows but not the meter index memo, which holds
        three of the eight VNIs here, so both its hit and its miss path
        run."""
        shape = dict(stage1_rate_pps=2_000, stage2_rate_pps=500, color_entries=4,
                     meter_entries=3, sample_rate=sample_rate, pre_rate_pps=300)
        inlined = TwoStageRateLimiter(random.Random(seed), **shape)
        inlined._sampler.threshold = 2
        reference = ReferenceLimiter(random.Random(seed), threshold=2, **shape)
        inlined.add_bypass(7)
        reference.add_bypass(7)

        def same_state():
            rows = {name: {index: tuple(row) for index, row in table.items()}
                    for name, table in (("color", inlined._color), ("meter", inlined._meter),
                                        ("pre_meter", inlined._pre_meter))}
            # repr tells every float apart by its bits, -0.0 from 0.0 too.
            assert repr(rows) == repr(reference.rows())
            assert inlined.decisions == reference.decisions
            assert inlined.promotions == reference.promotions
            assert inlined._sampler.rng.getstate() == reference.rng.getstate()
            assert dict(inlined._sampler._counts) == reference.counts

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flows, "FLOW_MEMO_CAPACITY", 3)
            arrivals = random.Random(seed)
            now = 0
            for arrival in range(400):
                if arrival == 200:
                    same_state()
                    assert inlined.corrupt_sram() == reference.corrupt_sram()
                now += arrivals.randrange(40_000)
                vni = arrivals.randrange(8)
                assert inlined.admit(vni, now) is reference.admit(vni, now)
            assert len(inlined._meter_slot) == 3
        same_state()

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
