"""Proactive heavy-hitter promotion: one sketch, one epoch policy.

The paper (§4.3, planned work): "we plan to utilize the CPU to detect
heavy hitters in advance and then install them to the pre_check and
pre_meter table for avoiding triggering hash collisions in the
meter_table."  The CPU side sees every forwarded packet anyway, so a
space-saving stream sketch can rank keys by rate and push the top
talkers into a small table *before* their overflow ever reaches the
shared one.  The sketch is the classic space-saving (Metwally et al.)
top-k structure: bounded memory, no false negatives above the
threshold.

:class:`HotFlowPromoter` is that policy over any such table: tenant
VNIs into the limiter's pre tables
(:class:`~repro.core.ratelimit.TwoStageRateLimiter`), or flows into a
DPU's fast table (:class:`~repro.topology.dpu.DpuPreClassifier`).
"""

from repro.controlplane.snapshot import Stateful, Table
from repro.sim.units import SECOND


class SpaceSavingSketch(Stateful):
    """Space-saving top-k counter over integer keys (VNIs or flows).

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


class HotFlowPromoter(Stateful):
    """Epoch-driven promotion and demotion over one bounded table.

    Whoever sees the traffic feeds ``sketch.observe(key)``.  Every epoch
    the sketch's top ``table.table_capacity`` keys above the rate
    threshold are installed, heaviest first, so when the table fills the
    heaviest keys win the slots; installed keys that go quiet for
    ``demote_after_epochs`` consecutive epochs are demoted, so slots
    recycle when bursts end.  The sketch then resets.

    Parameters:
        sim: the simulator.
        table: what the keys are installed into.  It offers
            ``promote(key)`` (False when already installed or full),
            ``installed(key)``, ``demote(key)`` and ``table_capacity``.
        threshold_pps: keys observed above this rate are promoted.
        epoch_ns: detection epoch; the sketch resets every epoch.
        demote_after_epochs: installed keys unseen as hot for this many
            epochs are demoted.
        sketch_capacity: space-saving sketch size.
    """

    __slots__ = ("sim", "table", "threshold_pps", "epoch_ns",
                 "demote_after_epochs", "sketch", "_quiet_epochs", "_task")
    STATE = (("quiet_epochs", "_quiet_epochs"), "sketch", ("task", "_task"))

    def __init__(self, sim, table, threshold_pps=5_000, epoch_ns=10_000_000,
                 demote_after_epochs=2, sketch_capacity=1024):
        self.sim = sim
        self.table = table
        self.threshold_pps = threshold_pps
        self.epoch_ns = epoch_ns
        self.demote_after_epochs = demote_after_epochs
        self.sketch = SpaceSavingSketch(sketch_capacity)
        self._quiet_epochs = Table()   # installed key -> quiet epoch count
        self._task = sim.every(epoch_ns, self._epoch)

    def _epoch(self):
        table = self.table
        threshold_count = self.threshold_pps * self.epoch_ns / SECOND
        # top() ranks by count descending with deterministic ties.
        hot = [
            key
            for key, count in self.sketch.top(table.table_capacity)
            if count >= threshold_count
        ]
        for key in hot:
            if table.promote(key) or table.installed(key):
                self._quiet_epochs[key] = 0
        hot_set = set(hot)
        for key in sorted(self._quiet_epochs):
            if key in hot_set:
                continue
            self._quiet_epochs[key] += 1
            if self._quiet_epochs[key] >= self.demote_after_epochs:
                table.demote(key)
                del self._quiet_epochs[key]
        self.sketch.reset()
