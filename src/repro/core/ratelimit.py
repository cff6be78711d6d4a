"""Gateway overload protection: the two-stage tenant rate limiter (§4.3).

Assigning one meter per tenant would cost >200 MB of SRAM for 1M tenants;
Albatross gets the same protection from ~2 MB via two stages:

* **Stage 1 (color_table)** -- 4K entries indexed by ``VNI % 4096``.
  Traffic within the coarse limit passes; the *excess* is marked and sent
  to stage 2.
* **Stage 2 (meter_table)** -- a hash table indexed by ``hash(VNI)``.
  Marked traffic beyond the fine limit is dropped.

So a tenant's effective ceiling is ``stage1_rate + stage2_rate`` (the
Fig. 14 experiment uses 8 + 2 = 10 Mpps).

Hash collisions in the meter table can rate-limit innocent tenants, so a
**pre_check** table (128 entries) identifies heavy hitters -- sampled from
meter-table activity, since heavy hitters dominate the samples -- and
rate-limits them early in a dedicated **pre_meter** (128 entries), keeping
them out of the shared meter table.  Top-tier tenants can be configured in
pre_check to bypass rate limiting entirely.

Each table is laid out as its SRAM is: the rate and the burst belong to
the table, and a row holds only what varies, ``[tokens, last_ns]``.
"""

import enum

from repro.analysis.sanitizer import get_sanitizer
from repro.controlplane.snapshot import Stateful, Table
from repro.packet.flows import FlowMemo
from repro.packet.hashing import crc32_vni_hash
from repro.sim.units import SECOND


class RateLimitDecision(enum.Enum):
    """Outcome of :meth:`TwoStageRateLimiter.admit` for one packet."""

    ALLOW = "allow"                    # within the coarse limit
    ALLOW_MARKED = "allow_marked"      # exceeded stage 1, within stage 2
    DROP_METER = "drop_meter"          # exceeded both stages
    ALLOW_PRE = "allow_pre"            # known heavy hitter, within pre_meter
    DROP_PRE = "drop_pre"              # known heavy hitter, over pre_meter
    BYPASS = "bypass"                  # configured to skip all limiting

    # Identity hash: ``decisions[decision]`` and the NIC's decision ->
    # drop-reason lookup are per packet, and ``Enum.__hash__`` is a
    # Python-level call.
    __hash__ = object.__hash__

    @property
    def allowed(self):
        return self in _ALLOWED


_ALLOWED = frozenset((
    RateLimitDecision.ALLOW,
    RateLimitDecision.ALLOW_MARKED,
    RateLimitDecision.ALLOW_PRE,
    RateLimitDecision.BYPASS,
))

# ``admit``'s decisions, bound once: a member loaded through its Enum
# class goes through ``EnumType.__getattr__``'s slot, per packet.
_ALLOW = RateLimitDecision.ALLOW
_ALLOW_MARKED = RateLimitDecision.ALLOW_MARKED
_DROP_METER = RateLimitDecision.DROP_METER
_ALLOW_PRE = RateLimitDecision.ALLOW_PRE
_DROP_PRE = RateLimitDecision.DROP_PRE
_BYPASS = RateLimitDecision.BYPASS


class _HitterSampler(Stateful):
    """Sampled heavy-hitter detection over meter-table drops.

    Each meter-table *drop* is sampled with probability ``1/sample_rate``;
    a VNI whose sample count crosses ``threshold`` within ``window_ns`` is
    promoted to the pre_check table.  Heavy hitters dominate drops, so the
    promotion takes effect "in one second" as the paper states.  The
    window counts snapshot as ``[vni, count]`` pairs, keeping VNIs integer.

    The sample is ``rng.randrange(sample_rate) == 0`` drawn in
    :meth:`observe`'s own frame: ``getrandbits(sample_rate.bit_length())``
    until the draw is below ``sample_rate``, which is what CPython's
    ``Random.randrange(n)`` runs, so the stream advances identically.
    """

    STATE = (("counts", "_counts"), ("window_start", "_window_start"), "rng")

    def __init__(self, rng, sample_rate=100, threshold=8, window_ns=SECOND):
        if sample_rate < 1:
            raise ValueError(f"sample rate must be >= 1, got {sample_rate}")
        self.rng = rng
        self.sample_rate = sample_rate
        self.threshold = threshold
        self.window_ns = window_ns
        self._counts = Table()
        self._window_start = 0

    def observe(self, vni, now_ns):
        """Record one meter drop; returns True when ``vni`` crosses the bar."""
        if now_ns - self._window_start > self.window_ns:
            self._counts.clear()
            self._window_start = now_ns
        # rng.randrange(sample_rate), without its two Python frames.
        sample_rate = self.sample_rate
        bits = sample_rate.bit_length()
        getrandbits = self.rng.getrandbits
        draw = getrandbits(bits)
        while draw >= sample_rate:
            draw = getrandbits(bits)
        if draw:
            return False
        count = self._counts.get(vni, 0) + 1
        self._counts[vni] = count
        return count >= self.threshold


class TwoStageRateLimiter(Stateful):
    """The full §4.3 pipeline: pre_check -> color_table -> meter_table.

    Parameters:
        rng: random stream for the sampler.
        stage1_rate_pps / stage2_rate_pps: per-entry limits.
        color_entries: stage-1 table size (4K in hardware).
        meter_entries: stage-2 hash-table size.
        pre_entries: capacity of pre_check / pre_meter (128 in hardware),
            kept as ``table_capacity``.
        pre_rate_pps: rate granted to promoted heavy hitters (defaults to
            stage1 + stage2, i.e. the same effective ceiling).
        auto_promote: enable sampling-based promotion into pre_check.

    ``color`` and ``meter`` map a table index, ``pre_meter`` a VNI, to a
    token-bucket row ``[tokens, last_ns]``.  A row is materialized on
    first touch at ``[burst, 0]``; each table's rate is its constructor
    argument and its burst 10 ms of that rate, at least one packet.

    Its snapshot is the limiter SRAM: every materialized row as
    ``[index, [tokens, last_ns]]`` sorted by index (independent of
    arrival order), the bypass set, the sampler window and rng, and the
    decision counters.  Rates, bursts, table sizes and the promotion
    policy stay as constructed.

    A VNI's meter-table index is a pure function of the VNI (the table
    size is fixed), so it is derived once per VNI into a bounded
    :class:`~repro.packet.flows.FlowMemo` that no SRAM scrub or restore
    touches.
    """

    STATE = (
        ("color", "_color"), ("meter", "_meter"), ("pre_meter", "_pre_meter"),
        ("bypass", "_bypass"), "decisions", "promotions", "sram_resets",
        ("sampler", "_sampler"),
    )
    DERIVED = {
        "_meter_slot": "memo of a VNI's meter index, a pure function of the VNI and "
                       "the constructed table size",
    }

    COLOR_ENTRY_BYTES = 32
    METER_ENTRY_BYTES = 32
    PRE_ENTRY_BYTES = 32

    def __init__(
        self,
        rng,
        stage1_rate_pps=8_000_000,
        stage2_rate_pps=2_000_000,
        color_entries=4096,
        meter_entries=61440,
        pre_entries=128,
        pre_rate_pps=None,
        auto_promote=True,
        sample_rate=100,
    ):
        self.stage1_rate_pps = stage1_rate_pps
        self.stage2_rate_pps = stage2_rate_pps
        self.color_entries = color_entries
        self.meter_entries = meter_entries
        self.table_capacity = pre_entries
        self.pre_rate_pps = (
            pre_rate_pps if pre_rate_pps is not None else stage1_rate_pps + stage2_rate_pps
        )
        if min(stage1_rate_pps, stage2_rate_pps, self.pre_rate_pps) <= 0:
            raise ValueError("limiter rates must be positive: "
                             f"{stage1_rate_pps}, {stage2_rate_pps}, {self.pre_rate_pps}")
        self.stage1_burst, self.stage2_burst, self.pre_burst = (
            max(1.0, rate * 0.01)
            for rate in (stage1_rate_pps, stage2_rate_pps, self.pre_rate_pps))
        self.auto_promote = auto_promote
        self._color = Table()   # index -> [tokens, last_ns]
        self._meter = Table()
        self._pre_meter = Table()   # vni -> [tokens, last_ns]
        self._meter_slot = FlowMemo(   # vni -> meter index
            lambda vni: crc32_vni_hash(vni, seed=0x3E7E) % meter_entries)
        self._bypass = set()
        self._sampler = _HitterSampler(rng, sample_rate=sample_rate)
        self.decisions = {decision: 0 for decision in RateLimitDecision}
        self.promotions = 0
        self.sram_resets = 0
        self._sanitizer = get_sanitizer()

    # -- configuration -------------------------------------------------

    def add_bypass(self, vni):
        """Exempt a top-tier tenant from all rate limiting."""
        if len(self._bypass) + len(self._pre_meter) >= self.table_capacity:
            raise ValueError("pre_check table full")
        self._bypass.add(vni)

    def promote(self, vni):
        """Install ``vni`` into pre_check/pre_meter for early limiting.

        The sampler's hook, and the table a
        :class:`~repro.core.hitters.HotFlowPromoter` drives for the
        planned CPU-side proactive detection (§4.3).  Returns False when
        ``vni`` is already installed or the 128-entry table is full.
        """
        if vni in self._pre_meter:
            return False
        if len(self._bypass) + len(self._pre_meter) >= self.table_capacity:
            return False
        self._pre_meter[vni] = [self.pre_burst, 0]
        self.promotions += 1
        return True

    def installed(self, vni):
        return vni in self._pre_meter

    def demote(self, vni):
        """Remove a tenant from the pre tables (burst over)."""
        self._pre_meter.pop(vni, None)

    def corrupt_sram(self):
        """Fault injection: an SRAM scrub wipes every row.

        Rows re-materialize at full burst on the next packet, so
        the visible symptom is a transient over-admission burst (each
        tenant gets a fresh ``burst`` worth of tokens) before the limiter
        re-converges to steady-state enforcement.  Promoted heavy hitters
        lose their pre_meter entries and must be re-detected by sampling.
        Returns the number of live rows wiped.
        """
        wiped = len(self._color) + len(self._meter) + len(self._pre_meter)
        self._color.clear()
        self._meter.clear()
        self._pre_meter.clear()
        self.sram_resets += 1
        return wiped

    # -- data path -------------------------------------------------------

    def admit(self, vni, now_ns):
        """Run one packet of tenant ``vni`` through the limiter.

        One frame per packet: pre_check, the color table and the meter
        table run inline.  A row refills by ``elapsed * rate / SECOND``
        tokens, capped at its table's burst, and a packet takes one.
        """
        if vni in self._bypass:
            decision = _BYPASS
        else:
            # pre_check: a known heavy hitter meets its pre_meter only;
            # anyone else meets the color table, then the meter table.
            row = self._pre_meter.get(vni)
            if row is not None:
                rate, burst = self.pre_rate_pps, self.pre_burst
                passed, failed = _ALLOW_PRE, _DROP_PRE
            else:
                rate, burst = self.stage1_rate_pps, self.stage1_burst
                color_index = vni % self.color_entries
                row = self._color.get(color_index)
                if row is None:
                    row = self._color[color_index] = [burst, 0]
                passed, failed = _ALLOW, None
            while True:
                tokens, last_ns = row
                if now_ns > last_ns:
                    tokens += (now_ns - last_ns) * rate / SECOND
                    # min(burst, tokens), without the builtin call.
                    if tokens > burst:
                        tokens = burst
                    row[1] = now_ns
                if tokens >= 1.0:
                    row[0] = tokens - 1.0
                    decision = passed
                    break
                row[0] = tokens
                if failed is not None:
                    decision = failed
                    break
                # Over the coarse limit: marked excess meets the meter table.
                rate, burst = self.stage2_rate_pps, self.stage2_burst
                meter_index = self._meter_slot[vni]
                row = self._meter.get(meter_index)
                if row is None:
                    row = self._meter[meter_index] = [burst, 0]
                passed, failed = _ALLOW_MARKED, _DROP_METER
            if (decision is _DROP_METER and self.auto_promote
                    and self._sampler.observe(vni, now_ns)):
                self.promote(vni)
        self.decisions[decision] += 1
        if self._sanitizer is not None:
            self._check_sram_budget()
        return decision

    def _check_sram_budget(self):
        """Materialized rows must fit the provisioned tables."""
        sanitizer = self._sanitizer
        sanitizer.ensure(
            len(self._color) <= self.color_entries, "sram-budget",
            f"color table holds {len(self._color)} rows, "
            f"provisioned for {self.color_entries}",
            live=len(self._color), entries=self.color_entries,
        )
        sanitizer.ensure(
            len(self._meter) <= self.meter_entries, "sram-budget",
            f"meter table holds {len(self._meter)} rows, "
            f"provisioned for {self.meter_entries}",
            live=len(self._meter), entries=self.meter_entries,
        )
        pre_live = len(self._bypass) + len(self._pre_meter)
        sanitizer.ensure(
            pre_live <= self.table_capacity, "sram-budget",
            f"pre_check/pre_meter hold {pre_live} entries, "
            f"provisioned for {self.table_capacity}",
            live=pre_live, entries=self.table_capacity,
        )

    # -- accounting ------------------------------------------------------

    def decisions_dropped(self):
        """Total packets dropped by any stage (meter or pre_meter)."""
        return (
            self.decisions[RateLimitDecision.DROP_METER]
            + self.decisions[RateLimitDecision.DROP_PRE]
        )

    def sram_bytes(self):
        """Provisioned on-chip SRAM (hardware sizes all entries up front)."""
        return (
            self.color_entries * self.COLOR_ENTRY_BYTES
            + self.meter_entries * self.METER_ENTRY_BYTES
            + 2 * self.table_capacity * self.PRE_ENTRY_BYTES  # pre_check + pre_meter
        )

    @staticmethod
    def naive_sram_bytes(tenants, entry_bytes=208):
        """Per-tenant meters: what the paper rules out (>200 MB for 1M)."""
        return tenants * entry_bytes

    def meter_collision_pairs(self, vnis):
        """Which of ``vnis`` share a meter-table entry (diagnostics)."""
        by_index = {}
        for vni in vnis:
            index = crc32_vni_hash(vni, seed=0x3E7E) % self.meter_entries
            by_index.setdefault(index, []).append(vni)
        return [group for group in by_index.values() if len(group) > 1]
