"""The fault injector: drives a :class:`~repro.faults.plan.FaultPlan`.

The injector owns three jobs:

1. **Injection** -- at each fault's ``at_ns`` it flips the corresponding
   hook on the bound targets (NIC stall flag, pod crash, core failure,
   limiter SRAM scrub, BFD link state) and, when the fault has a
   duration, schedules the raw condition to clear.
2. **Bookkeeping** -- every fault gets a :class:`FaultRecord`; detection
   and recovery are reported back by whichever subsystem noticed (the
   FPGA watchdog's ``on_reset``, a BFD ``on_down``, a scenario's
   reschedule logic) via :meth:`FaultInjector.note_detected` /
   :meth:`note_recovered`.
3. **Metrics** -- records are flattened into a
   :class:`~repro.metrics.counters.CounterSet` (``finalize``) so fault
   outcomes flow through the same metrics layer as everything else.

Steady-state recovery is measured by :class:`SteadyStateTracker`, which
samples a cumulative packet counter in fixed windows and marks the first
post-fault window whose rate is back within tolerance of the pre-fault
baseline.
"""

from repro.faults.plan import FaultKind
from repro.metrics.counters import CounterSet
from repro.metrics.summary import mean
from repro.sim.units import MS


class FaultTargets:
    """The injectable surface of one simulated deployment.

    Any attribute may be left ``None``; injecting a fault whose target is
    unbound raises, so plans stay honest about what they exercise.

    Attributes:
        nic: :class:`~repro.core.nic.NicPipeline` (FPGA_STALL).
        pod: :class:`~repro.core.gateway.GwPodRuntime` (POD_CRASH).
        cores: list of :class:`~repro.cpu.core.CpuCore` (CORE_STALL).
        limiter: :class:`~repro.core.ratelimit.TwoStageRateLimiter`
            (LIMITER_SRAM).
        link: :class:`~repro.bgp.bfd.BfdLink` (LINK_FLAP).
    """

    def __init__(self, nic=None, pod=None, cores=None, limiter=None, link=None):
        self.nic = nic
        self.pod = pod
        self.cores = list(cores) if cores is not None else None
        self.limiter = limiter
        self.link = link


class FaultRecord:
    """Outcome bookkeeping for one injected fault."""

    __slots__ = (
        "fault",
        "injected_ns",
        "detected_ns",
        "recovered_ns",
        "steady_state_ns",
        "blackout_drops",
        "blackout_reordered",
        "notes",
    )

    def __init__(self, fault, injected_ns):
        self.fault = fault
        self.injected_ns = injected_ns
        self.detected_ns = None
        self.recovered_ns = None
        self.steady_state_ns = None
        self.blackout_drops = 0
        self.blackout_reordered = 0
        self.notes = {}

    @property
    def kind(self):
        return self.fault.kind

    @property
    def detection_latency_ns(self):
        if self.detected_ns is None:
            return None
        return self.detected_ns - self.injected_ns

    @property
    def time_to_steady_state_ns(self):
        if self.steady_state_ns is None:
            return None
        return self.steady_state_ns - self.injected_ns

    def __repr__(self):
        return (
            f"<FaultRecord {self.kind.value} injected={self.injected_ns} "
            f"detected={self.detected_ns} steady={self.steady_state_ns}>"
        )


class SteadyStateTracker:
    """Detects throughput returning to the pre-fault baseline.

    Samples ``count_fn()`` (a cumulative packet count) every
    ``window_ns``.  When a record is armed, the baseline is the mean
    per-window delta of the last ``baseline_windows`` full windows before
    injection; the record's ``steady_state_ns`` is the end of the first
    later window whose delta is within ``tolerance`` of that baseline.
    """

    def __init__(self, sim, count_fn, window_ns=20 * MS, tolerance=0.05,
                 baseline_windows=3):
        self.sim = sim
        self.count_fn = count_fn
        self.window_ns = window_ns
        self.tolerance = tolerance
        self.baseline_windows = baseline_windows
        self.deltas = []  # (window_end_ns, delta)
        self._last_count = count_fn()
        self._waiting = []  # (record, baseline_rate)
        self._task = sim.every(window_ns, self._sample)

    def arm(self, record):
        """Start watching for this record's return to steady state.

        The baseline comes from the last windows that ended *before* the
        fault was injected -- the most recent windows are the blackout
        itself and would make any trickle look healthy.
        """
        pre_fault = [
            delta for end, delta in self.deltas if end <= record.injected_ns
        ]
        recent = pre_fault[-self.baseline_windows:]
        baseline = mean(recent) if recent else 0.0
        record.notes["baseline_per_window"] = baseline
        self._waiting.append((record, baseline))

    def _sample(self):
        count = self.count_fn()
        delta = count - self._last_count
        self._last_count = count
        now = self.sim.now
        self.deltas.append((now, delta))
        still_waiting = []
        for record, baseline in self._waiting:
            # Only windows that started after injection count; a window
            # straddling the fault mixes healthy and blacked-out traffic.
            if (
                now - self.window_ns >= record.injected_ns
                and delta >= (1.0 - self.tolerance) * baseline
            ):
                record.steady_state_ns = now
            else:
                still_waiting.append((record, baseline))
        self._waiting = still_waiting


class FaultInjector:
    """Schedules a plan's faults onto the simulator and records outcomes."""

    def __init__(self, sim, targets=None, metrics=None, tracker=None):
        self.sim = sim
        self.targets = targets if targets is not None else FaultTargets()
        self.metrics = metrics if metrics is not None else CounterSet()
        self.tracker = tracker
        self.records = []
        self._active = {}  # FaultKind -> most recent un-recovered record
        self._handlers = {
            FaultKind.FPGA_STALL: self._inject_fpga_stall,
            FaultKind.POD_CRASH: self._inject_pod_crash,
            FaultKind.CORE_STALL: self._inject_core_stall,
            FaultKind.LIMITER_SRAM: self._inject_limiter_sram,
            FaultKind.LINK_FLAP: self._inject_link_flap,
        }

    def load(self, plan):
        """Schedule every fault in ``plan``; returns self for chaining."""
        for fault in plan:
            self.sim.schedule_at(fault.at_ns, self._inject, fault)
        return self

    # -- reporting hooks (called by watchdogs / scenarios) ---------------

    def active_record(self, kind):
        return self._active.get(kind)

    def note_detected(self, kind, now=None):
        """A recovery mechanism noticed the active fault of ``kind``."""
        record = self._active.get(kind)
        if record is not None and record.detected_ns is None:
            record.detected_ns = now if now is not None else self.sim.now
        return record

    def note_recovered(self, kind, now=None):
        """The active fault of ``kind`` has been repaired."""
        record = self._active.pop(kind, None)
        if record is not None and record.recovered_ns is None:
            record.recovered_ns = now if now is not None else self.sim.now
            if record.detected_ns is None:
                # Repair implies detection at the latest by now.
                record.detected_ns = record.recovered_ns
            if self.tracker is not None:
                self.tracker.arm(record)
        return record

    # -- injection --------------------------------------------------------

    def _inject(self, fault):
        record = FaultRecord(fault, self.sim.now)
        fault.record = record
        self.records.append(record)
        self._active[fault.kind] = record
        self.metrics.incr(f"faults.{fault.kind.value}.injected")
        self._handlers[fault.kind](fault, record)

    def _require(self, attribute, kind):
        value = getattr(self.targets, attribute)
        if value is None:
            raise ValueError(
                f"fault {kind.value} needs targets.{attribute}, which is unbound"
            )
        return value

    def _inject_fpga_stall(self, fault, record):
        nic = self._require("nic", fault.kind)
        nic.set_fpga_stalled(True)
        if fault.duration_ns:
            # Safety net: if no watchdog repairs the pipeline first, the
            # stall clears itself (with the mandatory state-dropping
            # reset) when the raw condition ends.
            self.sim.schedule(fault.duration_ns, self._clear_fpga_stall, record)

    def _clear_fpga_stall(self, record):
        nic = self.targets.nic
        if nic.fpga_stalled:
            nic.recover_fpga()
            self.note_recovered(FaultKind.FPGA_STALL)
        elif record.recovered_ns is None:
            # A watchdog already reset the pipeline; close the record.
            self.note_recovered(FaultKind.FPGA_STALL)

    def _inject_pod_crash(self, fault, record):
        pod = self._require("pod", fault.kind)
        pod.crash()
        if self.targets.link is not None:
            # The pod's BFD adjacency dies with the container; the peer
            # detects the crash within multiplier * interval.
            self.targets.link.set_down()
        if fault.duration_ns:
            # Standalone (chaos) mode: the container runtime restarts the
            # pod in place after ``duration``.  Scenario mode passes
            # duration None and reschedules through the fleet scheduler.
            self.sim.schedule(fault.duration_ns, self._restart_pod, record)

    def _restart_pod(self, record):
        self.targets.pod.recover()
        if self.targets.link is not None:
            self.targets.link.set_up()
        self.note_recovered(FaultKind.POD_CRASH)

    def _inject_core_stall(self, fault, record):
        cores = self._require("cores", fault.kind)
        index = fault.target if fault.target is not None else 0
        core = cores[index % len(cores)]
        record.notes["core_id"] = core.core_id
        core.fail(fault.duration_ns)
        if fault.duration_ns:
            self.sim.schedule(
                fault.duration_ns, self.note_recovered, FaultKind.CORE_STALL
            )

    def _inject_limiter_sram(self, fault, record):
        limiter = self._require("limiter", fault.kind)
        # An SRAM scrub raises a synchronous ECC event: detection is
        # immediate even though re-convergence (recovery) is not.
        self.note_detected(fault.kind)
        wiped = limiter.corrupt_sram()
        record.notes["buckets_wiped"] = wiped
        self.metrics.incr("faults.limiter_sram.buckets_wiped", wiped)
        # The corruption itself is instantaneous; recovery means the
        # refilled buckets have drained back to enforcement, which the
        # scenario detects from the first post-reset drop decision.

    def _inject_link_flap(self, fault, record):
        link = self._require("link", fault.kind)
        link.set_down()
        if fault.duration_ns:
            self.sim.schedule(fault.duration_ns, self._raise_link, record)

    def _raise_link(self, record):
        self.targets.link.set_up()
        record.notes["probes_lost"] = self.targets.link.probes_lost
        # Recovery (sessions back UP) is reported by the BFD on_up hook.

    # -- metrics -----------------------------------------------------------

    def finalize(self):
        """Flatten every record into the metrics CounterSet; returns it.

        Counter names are ``faults.<kind>.<index>.<field>`` with times in
        integer nanoseconds, so a snapshot is deterministic and
        byte-comparable across runs.
        """
        for index, record in enumerate(self.records):
            prefix = f"faults.{record.kind.value}.{index}"
            self.metrics.incr(f"{prefix}.injected_ns", record.injected_ns)
            if record.detection_latency_ns is not None:
                self.metrics.incr(
                    f"{prefix}.detection_latency_ns", record.detection_latency_ns
                )
            if record.time_to_steady_state_ns is not None:
                self.metrics.incr(
                    f"{prefix}.time_to_steady_state_ns",
                    record.time_to_steady_state_ns,
                )
            self.metrics.incr(f"{prefix}.blackout_drops", record.blackout_drops)
            self.metrics.incr(
                f"{prefix}.blackout_reordered", record.blackout_reordered
            )
        return self.metrics
