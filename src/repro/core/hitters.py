"""CPU-side proactive heavy-hitter detection (§4.3, planned work).

The paper: "we plan to utilize the CPU to detect heavy hitters in
advance and then install them to the pre_check and pre_meter table for
avoiding triggering hash collisions in the meter_table."

This module implements that plan.  The CPU side sees every forwarded
packet anyway, so a space-saving stream sketch can rank tenants by rate
and push the top talkers into the limiter's pre tables *before* their
overflow ever reaches the shared meter table.  The sketch is the classic
space-saving (Metwally et al.) top-k structure: bounded memory, no
false negatives above the threshold.
"""

from repro.controlplane.snapshot import Stateful, Table
from repro.sim.units import SECOND


class SpaceSavingSketch(Stateful):
    """Space-saving top-k counter over tenant VNIs.

    ``capacity`` bounds tracked tenants; a new tenant evicts the current
    minimum, inheriting its count (the classic over-estimate bound:
    error <= min_count).  Ties in eviction and ranking go to the key
    counted first, so the snapshot keeps ``[key, count]`` pairs in that
    order rather than sorted.
    """

    STATE = (("counts", "_counts"), "total")

    def __init__(self, capacity=1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts = {}
        self.total = 0

    def observe(self, vni, count=1):
        self.total += count
        if vni in self._counts:
            self._counts[vni] += count
            return
        if len(self._counts) < self.capacity:
            self._counts[vni] = count
            return
        # Evict the minimum; the newcomer inherits its count.
        min_vni = min(self._counts, key=self._counts.get)
        min_count = self._counts.pop(min_vni)
        self._counts[vni] = min_count + count

    def estimate(self, vni):
        return self._counts.get(vni, 0)

    def top(self, k):
        """[(vni, estimated count)] of the k largest."""
        ranked = sorted(self._counts.items(), key=lambda item: -item[1])
        return ranked[:k]

    def reset(self):
        self._counts.clear()
        self.total = 0

    def checkpoint(self):
        return {"counts": [[key, count] for key, count in self._counts.items()],
                "total": self.total}

    def restore(self, snapshot):
        self._counts = {key: count for key, count in snapshot["counts"]}
        self.total = snapshot["total"]


class CpuHitterDetector(Stateful):
    """Periodic CPU-side detection feeding the limiter's pre tables.

    Parameters:
        sim: the simulator.
        limiter: a :class:`~repro.core.ratelimit.TwoStageRateLimiter`.
        threshold_pps: tenants exceeding this observed rate are promoted.
        period_ns: detection epoch; the sketch resets every epoch.
        demote_after_epochs: tenants quiet for this many epochs are
            removed from the pre tables (bursts end).
    """

    STATE = (
        "promotions", "demotions", ("quiet_epochs", "_quiet_epochs"), "sketch",
        ("task", "_task"),
    )

    def __init__(
        self,
        sim,
        limiter,
        threshold_pps=1_000_000,
        period_ns=1 * SECOND,
        sketch_capacity=1024,
        demote_after_epochs=3,
    ):
        self.sim = sim
        self.limiter = limiter
        self.threshold_pps = threshold_pps
        self.period_ns = period_ns
        self.demote_after_epochs = demote_after_epochs
        self.sketch = SpaceSavingSketch(sketch_capacity)
        self.promotions = 0
        self.demotions = 0
        self._quiet_epochs = Table()   # promoted VNI -> quiet epoch count
        self._task = sim.every(period_ns, self._epoch)

    def observe_packet(self, vni):
        """Call from the CPU fast path (cheap: one dict update)."""
        self.sketch.observe(vni)

    def _epoch(self):
        threshold_count = self.threshold_pps * self.period_ns / SECOND
        hot = {
            vni
            for vni, count in self.sketch.top(self.limiter.pre_entries)
            if count >= threshold_count
        }
        for vni in hot:
            already_installed = vni in self.limiter.pre_table_vnis
            if self.limiter.promote_heavy_hitter(vni) and not already_installed:
                self.promotions += 1
            self._quiet_epochs[vni] = 0
        # Age out tenants that stopped being hot.
        for vni in sorted(self._quiet_epochs):
            if vni in hot:
                continue
            self._quiet_epochs[vni] += 1
            if self._quiet_epochs[vni] >= self.demote_after_epochs:
                self.limiter.demote(vni)
                del self._quiet_epochs[vni]
                self.demotions += 1
        self.sketch.reset()
