"""Hot-flow promotion/demotion policy for the DPU tier.

Same epoch pattern as :class:`~repro.core.hitters.CpuHitterDetector`,
reusing its :class:`~repro.core.hitters.SpaceSavingSketch`, but keyed
by :class:`~repro.packet.flows.FlowKey` instead of tenant VNI and
driving a :class:`~repro.topology.dpu.DpuPreClassifier` table instead
of the limiter's pre tables.  Every epoch the sketch's top flows above
the rate threshold are installed; installed flows that go quiet for
``demote_after_epochs`` consecutive epochs are evicted so table slots
recycle when bursts end.
"""

from repro.core.hitters import SpaceSavingSketch
from repro.sim.units import SECOND


class HotFlowPromoter:
    """Epoch-driven promotion policy over a DPU pre-classifier.

    Parameters:
        sim: the simulator.
        dpu: the :class:`~repro.topology.dpu.DpuPreClassifier` to drive.
        threshold_pps: flows observed above this slow-path rate are
            promoted.
        epoch_ns: detection epoch; the sketch resets every epoch.
        demote_after_epochs: installed flows unseen as hot for this many
            epochs are demoted.
        sketch_capacity: space-saving sketch size.
    """

    __slots__ = ("sim", "dpu", "threshold_pps", "epoch_ns",
                 "demote_after_epochs", "sketch", "_quiet_epochs", "_task")

    def __init__(self, sim, dpu, threshold_pps=5_000, epoch_ns=10_000_000,
                 demote_after_epochs=2, sketch_capacity=1024):
        self.sim = sim
        self.dpu = dpu
        self.threshold_pps = threshold_pps
        self.epoch_ns = epoch_ns
        self.demote_after_epochs = demote_after_epochs
        self.sketch = SpaceSavingSketch(sketch_capacity)
        self._quiet_epochs = {}   # installed FlowKey -> quiet epoch count
        self._task = sim.every(epoch_ns, self._epoch)

    def _epoch(self):
        threshold_count = self.threshold_pps * self.epoch_ns / SECOND
        # top() ranks by count descending with deterministic ties, so
        # when the table fills the heaviest flows win the slots.
        hot = [
            flow
            for flow, count in self.sketch.top(self.dpu.table_capacity)
            if count >= threshold_count
        ]
        for flow in hot:
            if self.dpu.promote(flow) or self.dpu.installed(flow):
                self._quiet_epochs[flow] = 0
        hot_set = set(hot)
        for flow in sorted(self._quiet_epochs):
            if flow in hot_set:
                continue
            self._quiet_epochs[flow] += 1
            if self._quiet_epochs[flow] >= self.demote_after_epochs:
                self.dpu.demote(flow)
                del self._quiet_epochs[flow]
        self.sketch.reset()

    def stop(self):
        self._task.cancel()
