"""Two-stage rate limiter tests (§4.3)."""

import gc
import random
import tracemalloc

import pytest

from repro.core import ratelimit
from repro.core.ratelimit import RateLimitDecision, TwoStageRateLimiter
from repro.scenarios import build, scenario_spec
from repro.sim.units import MS, SECOND
from tests.reference_limiter import TokenBucket


class TestTokenBucket:
    def test_burst_then_blocked(self):
        bucket = TokenBucket(rate_pps=1000, burst=10)
        allowed = sum(bucket.allow(0) for _ in range(20))
        assert allowed == 10

    def test_refills_over_time(self):
        bucket = TokenBucket(rate_pps=1000, burst=10)
        for _ in range(10):
            bucket.allow(0)
        assert not bucket.allow(0)
        # 5 ms at 1000 pps -> 5 tokens.
        assert bucket.allow(5 * MS)
        assert bucket.tokens_at(5 * MS) == pytest.approx(4.0)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_pps=1000, burst=10)
        assert bucket.tokens_at(100 * SECOND) == 10

    def test_sustained_rate_converges(self):
        bucket = TokenBucket(rate_pps=1000, burst=10)
        allowed = 0
        for step in range(10_000):  # offer 10 Kpps for 1 s
            if bucket.allow(step * 100_000):
                allowed += 1
        assert allowed == pytest.approx(1000, rel=0.05)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(0)

    def test_reconfigure(self):
        bucket = TokenBucket(rate_pps=10, burst=1)
        bucket.allow(0)
        bucket.reconfigure(1_000_000, burst=100)
        assert bucket.allow(1 * MS)


def make_limiter(**kwargs):
    defaults = dict(
        stage1_rate_pps=1000,
        stage2_rate_pps=200,
        color_entries=64,
        meter_entries=256,
        sample_rate=10,
    )
    defaults.update(kwargs)
    return TwoStageRateLimiter(random.Random(42), **defaults)


def offer(limiter, vni, pps, duration_ns, start_ns=0):
    """Offer CBR traffic; returns allowed count."""
    interval = SECOND // pps
    allowed = 0
    now = start_ns
    end = start_ns + duration_ns
    while now < end:
        if limiter.admit(vni, now).allowed:
            allowed += 1
        now += interval
    return allowed


class TestTwoStage:
    def test_under_limit_all_allowed(self):
        limiter = make_limiter()
        allowed = offer(limiter, vni=5, pps=500, duration_ns=1 * SECOND)
        assert allowed == pytest.approx(500, rel=0.05)
        assert limiter.decisions[RateLimitDecision.DROP_METER] == 0

    def test_effective_ceiling_is_stage1_plus_stage2(self):
        """The Fig. 14 property: a flood is clipped to 8+2 (here 1000+200)."""
        limiter = make_limiter()
        allowed = offer(limiter, vni=5, pps=10_000, duration_ns=2 * SECOND)
        rate = allowed / 2
        assert rate == pytest.approx(1200, rel=0.1)

    def test_overflow_is_marked_before_stage2(self):
        limiter = make_limiter()
        offer(limiter, vni=5, pps=5_000, duration_ns=1 * SECOND)
        assert limiter.decisions[RateLimitDecision.ALLOW_MARKED] > 0
        assert limiter.decisions[RateLimitDecision.DROP_METER] > 0

    def test_distinct_color_entries_do_not_interfere(self):
        limiter = make_limiter()
        # VNIs 1 and 2 use different color entries (64-entry table).
        offer(limiter, vni=1, pps=5_000, duration_ns=1 * SECOND)
        allowed = offer(limiter, vni=2, pps=500, duration_ns=1 * SECOND)
        assert allowed == pytest.approx(500, rel=0.05)

    def test_bypass_never_limited(self):
        limiter = make_limiter()
        limiter.add_bypass(7)
        allowed = offer(limiter, vni=7, pps=50_000, duration_ns=200 * MS)
        assert allowed == pytest.approx(10_000, rel=0.01)
        assert limiter.decisions[RateLimitDecision.BYPASS] == allowed

    def test_manual_promotion_uses_pre_meter(self):
        limiter = make_limiter(auto_promote=False, pre_rate_pps=100)
        assert limiter.promote(9)
        allowed = offer(limiter, vni=9, pps=10_000, duration_ns=1 * SECOND)
        assert allowed == pytest.approx(100, rel=0.3)
        assert limiter.decisions[RateLimitDecision.DROP_PRE] > 0

    def test_auto_promotion_within_a_second(self):
        """§4.3: early rate-limiting takes effect 'in one second'."""
        limiter = make_limiter(auto_promote=True)
        offer(limiter, vni=9, pps=50_000, duration_ns=1 * SECOND)
        assert limiter.installed(9)
        assert limiter.promotions == 1

    def test_no_promotion_for_innocents(self):
        limiter = make_limiter(auto_promote=True)
        offer(limiter, vni=9, pps=800, duration_ns=1 * SECOND)
        assert not limiter.installed(9)

    def test_demote(self):
        limiter = make_limiter()
        limiter.promote(9)
        limiter.demote(9)
        assert not limiter.installed(9)

    def test_a_row_is_tokens_and_last_ns_under_its_tables_burst(self):
        limiter = make_limiter(pre_rate_pps=300)
        assert (limiter.stage1_burst, limiter.stage2_burst, limiter.pre_burst) == (10.0, 2.0, 3.0)
        limiter.admit(5, 0)
        limiter.admit(5, 3 * MS)
        assert limiter._color == {5: [9.0, 3 * MS]}
        limiter.promote(9)
        assert limiter._pre_meter == {9: [3.0, 0]}

    @pytest.mark.parametrize("rates", [
        dict(stage1_rate_pps=0), dict(stage2_rate_pps=-1), dict(pre_rate_pps=-5),
    ])
    def test_a_non_positive_rate_is_rejected(self, rates):
        with pytest.raises(ValueError, match="rates must be positive"):
            make_limiter(**rates)

    def test_pre_table_capacity_enforced(self):
        limiter = make_limiter(pre_entries=2)
        assert limiter.promote(1)
        assert limiter.promote(2)
        assert not limiter.promote(3)
        assert not limiter.promote(1)      # already installed
        with pytest.raises(ValueError):
            limiter.add_bypass(4)


class TestSramBudget:
    def test_default_config_fits_2mb(self):
        """The paper's headline: 1M tenants in ~2 MB of SRAM."""
        limiter = TwoStageRateLimiter(random.Random(1))
        assert limiter.sram_bytes() <= 2.1 * (1 << 20)
        assert limiter.sram_bytes() >= 1.5 * (1 << 20)

    def test_naive_approach_needs_200mb(self):
        naive = TwoStageRateLimiter.naive_sram_bytes(1_000_000)
        assert naive > 200 * (1 << 20) * 0.9

    def test_reduction_factor_about_100x(self):
        limiter = TwoStageRateLimiter(random.Random(1))
        factor = TwoStageRateLimiter.naive_sram_bytes(1_000_000) / limiter.sram_bytes()
        assert factor > 80

    def test_memory_is_the_tables_not_the_tenants(self):
        """§4.3's point, on a live limiter: once every row of a 64-entry
        color and a 256-entry meter table exists, four times as many
        tenants again leave the limiter's traced memory where it was, and
        that is under a budget written from the table sizes.  Traced
        memory is what ``ratelimit.py`` allocated and still holds (the
        meter-index memo is a bounded cache that ``test_flow_memo.py``
        pins); a full collection before each reading empties the float
        free list."""
        limiter = make_limiter(stage1_rate_pps=100, stage2_rate_pps=100, auto_promote=False)
        only_limiter = [tracemalloc.Filter(True, ratelimit.__file__)]

        def traced():
            gc.collect()
            return sum(trace.size for trace in
                       tracemalloc.take_snapshot().filter_traces(only_limiter).traces)

        def offer_two(vni):
            limiter.admit(vni, vni * 1_000)
            limiter.admit(vni, vni * 1_000)

        tracemalloc.start()
        try:
            tenants = 0
            while len(limiter._color) < 64 or len(limiter._meter) < 256:
                offer_two(tenants)
                tenants += 1
            full = traced()
            for vni in range(tenants, 5 * tenants):
                offer_two(vni)
            after = traced()
        finally:
            tracemalloc.stop()
        assert limiter.decisions[RateLimitDecision.DROP_METER] > 4 * tenants
        assert after <= full
        # A row is a two-slot list, a float and an int, and a dict slot.
        assert full < (limiter.color_entries + limiter.meter_entries) * 192

    def test_collision_pair_finder(self):
        limiter = make_limiter(meter_entries=4)
        groups = limiter.meter_collision_pairs(range(100))
        assert groups  # with 100 VNIs over 4 entries there are collisions
        assert all(len(group) > 1 for group in groups)


class TestRegistryScenario:
    def test_ratelimit_churn_arms_its_limiter(self):
        handle = build(scenario_spec("ratelimit-churn", quick=True))
        handle.run()
        decisions = handle.pods["pod"].nic.rate_limiter.decisions
        for decision in (RateLimitDecision.ALLOW, RateLimitDecision.ALLOW_MARKED,
                         RateLimitDecision.DROP_METER):
            assert decisions[decision] > 0
