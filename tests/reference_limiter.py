"""A straight-line reference for the §4.3 two-stage rate limiter.

One ``TokenBucket`` object per touched slot, each holding its own rate
and burst, the meter index hashed per packet, and the hitter sample
drawn with ``randrange``: the pipeline ``TwoStageRateLimiter.admit``
runs in one frame over ``[tokens, last_ns]`` rows.  It lives under
``tests/`` and nothing in ``src/`` may import it.
"""

from repro.core.ratelimit import RateLimitDecision
from repro.packet.hashing import crc32_vni_hash
from repro.sim.units import SECOND


class TokenBucket:
    """Packet-rate token bucket with lazy refill.

    ``rate_pps`` tokens accrue per second up to ``burst`` tokens.  Time is
    integer nanoseconds; token state is kept in fractional tokens to avoid
    rounding drift at low rates.
    """

    def __init__(self, rate_pps, burst=None):
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive: {rate_pps}")
        self.rate_pps = rate_pps
        # Default burst: 10 ms worth of traffic, at least one packet.
        self.burst = burst if burst is not None else max(1.0, rate_pps * 0.01)
        self._tokens = float(self.burst)
        self._last_ns = 0

    def _refill(self, now_ns):
        if now_ns > self._last_ns:
            gained = (now_ns - self._last_ns) * self.rate_pps / SECOND
            self._tokens = min(float(self.burst), self._tokens + gained)
            self._last_ns = now_ns

    def allow(self, now_ns, tokens=1.0):
        """Consume ``tokens`` if available; returns True if admitted."""
        self._refill(now_ns)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def tokens_at(self, now_ns):
        self._refill(now_ns)
        return self._tokens

    def reconfigure(self, rate_pps, burst=None):
        self.rate_pps = rate_pps
        if burst is not None:
            self.burst = burst
            self._tokens = min(self._tokens, float(burst))


class ReferenceLimiter:
    """pre_check -> color table -> meter table, a bucket per slot.

    Built with the keyword arguments of ``TwoStageRateLimiter`` (and the
    sampler's ``threshold``); ``rows()`` reads every table the way the
    limiter's snapshot does, ``{table: {index: (tokens, last_ns)}}``.
    """

    def __init__(self, rng, stage1_rate_pps, stage2_rate_pps, color_entries=4096,
                 meter_entries=61440, pre_entries=128, pre_rate_pps=None,
                 auto_promote=True, sample_rate=100, threshold=8, window_ns=SECOND):
        self.stage1_rate_pps = stage1_rate_pps
        self.stage2_rate_pps = stage2_rate_pps
        self.pre_rate_pps = pre_rate_pps or stage1_rate_pps + stage2_rate_pps
        self.color_entries = color_entries
        self.meter_entries = meter_entries
        self.table_capacity = pre_entries
        self.auto_promote = auto_promote
        self.color, self.meter, self.pre_meter = {}, {}, {}
        self.bypass = set()
        self.rng = rng
        self.sample_rate = sample_rate
        self.threshold = threshold
        self.window_ns = window_ns
        self.counts = {}
        self.window_start = 0
        self.decisions = {decision: 0 for decision in RateLimitDecision}
        self.promotions = 0

    def add_bypass(self, vni):
        self.bypass.add(vni)

    def promote(self, vni):
        if vni in self.pre_meter:
            return False
        if len(self.bypass) + len(self.pre_meter) >= self.table_capacity:
            return False
        self.pre_meter[vni] = TokenBucket(self.pre_rate_pps)
        self.promotions += 1
        return True

    def corrupt_sram(self):
        wiped = len(self.color) + len(self.meter) + len(self.pre_meter)
        self.color.clear()
        self.meter.clear()
        self.pre_meter.clear()
        return wiped

    def _sampled(self, vni, now_ns):
        """One meter drop seen by the sampler; True when ``vni`` crosses."""
        if now_ns - self.window_start > self.window_ns:
            self.counts.clear()
            self.window_start = now_ns
        if self.rng.randrange(self.sample_rate) != 0:
            return False
        self.counts[vni] = self.counts.get(vni, 0) + 1
        return self.counts[vni] >= self.threshold

    def admit(self, vni, now_ns):
        if vni in self.bypass:
            decision = RateLimitDecision.BYPASS
        elif vni in self.pre_meter:
            decision = (RateLimitDecision.ALLOW_PRE if self.pre_meter[vni].allow(now_ns)
                        else RateLimitDecision.DROP_PRE)
        else:
            color_index = vni % self.color_entries
            if color_index not in self.color:
                self.color[color_index] = TokenBucket(self.stage1_rate_pps)
            if self.color[color_index].allow(now_ns):
                decision = RateLimitDecision.ALLOW
            else:
                meter_index = crc32_vni_hash(vni, seed=0x3E7E) % self.meter_entries
                if meter_index not in self.meter:
                    self.meter[meter_index] = TokenBucket(self.stage2_rate_pps)
                if self.meter[meter_index].allow(now_ns):
                    decision = RateLimitDecision.ALLOW_MARKED
                else:
                    decision = RateLimitDecision.DROP_METER
                    if self.auto_promote and self._sampled(vni, now_ns):
                        self.promote(vni)
        self.decisions[decision] += 1
        return decision

    def rows(self):
        return {
            name: {index: (bucket._tokens, bucket._last_ns) for index, bucket in table.items()}
            for name, table in (("color", self.color), ("meter", self.meter),
                                ("pre_meter", self.pre_meter))
        }
