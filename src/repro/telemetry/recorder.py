"""Windowed time-series telemetry (``ScenarioSpec.timeseries_every_ns``).

The paper's evaluation is trajectories over time -- P99 under ramping
load (Fig. 9), HOL drops during a burst (Fig. 12), limiter behaviour
across an overload window (Fig. 13/14) -- while run reports historically
exposed only end-of-run aggregates.  The :class:`TimeSeriesRecorder`
closes that gap: armed by a spec's ``timeseries_every_ns``, it samples
every pod at fixed sim-time windows and the run report grows a
``"timeseries"`` section (reports without the field stay byte-identical
to a recorder-less build).

Window semantics:

* Window ``k`` covers ``[origin + k*W, origin + (k+1)*W)`` of sim time;
  the flush event fires exactly at the right edge.  An egress landing
  exactly on an edge belongs to whichever window the heap order says --
  the flush event was scheduled a full window earlier, so it carries a
  lower sequence number than any same-timestamp packet event scheduled
  since, and the packet counts toward the *next* window.  That tie-break
  is a pure function of simulation state, so it replays identically
  across worker counts and checkpoint resumes.
* Each window row carries, per pod, the window's counter *deltas*
  (:meth:`CounterSet.delta` over a combined NIC/limiter/reorder/core
  view; zero deltas are omitted, so an idle window renders as ``{}``)
  and a latency summary (count/mean/p50/p99) from a per-window
  histogram that resets at every flush.
* A run whose duration is not a multiple of the window ends with a
  partial row (``end_ns < start_ns + every_ns``); an exactly divisible
  run ends on a flush and has no partial row.

Checkpoint/restore is the codec's (:mod:`repro.controlplane.snapshot`):
the pending flush is ``STATE`` like the windows, and a restore puts it
back in its own ``(time, seq)`` slot -- so a mid-shard resume
reproduces the identical series.
"""

from repro.controlplane.snapshot import Stateful
from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram
from repro.topology.dpu import DPU_FAST_PATH

TIMESERIES_SCHEMA_VERSION = 1


class TimeSeriesRecorder(Stateful):
    """Samples every pod of a deployment at fixed sim-time windows.

    Parameters:
        sim: the :class:`~repro.sim.engine.Simulator`.
        pods: ``{name: GwPodRuntime}`` (the recorder reads each pod's
            counters at flush time; latencies arrive through :meth:`on_exit`,
            which ``build()`` subscribes to the deployment's packet exits).
        every_ns: window width in sim nanoseconds.

    Its restore validates the pod set before the codec's.
    """

    STATE = (
        "every_ns", ("origin_ns", "_origin"), ("window", "_window"), "windows",
        ("prev", "_prev"), ("hists", "_hists"), ("next_fire", "_event"),
    )

    def __init__(self, sim, pods, every_ns):
        if every_ns <= 0:
            raise ValueError(
                f"timeseries window must be positive (got {every_ns})"
            )
        self.sim = sim
        self.pods = pods
        self.every_ns = int(every_ns)
        self.windows = []
        self._origin = sim.now
        self._window = 0
        self._prev = {}
        self._hists = {}
        for name in sorted(pods):
            self._prev[name] = self._sample(pods[name]).snapshot()
            self._hists[name] = LatencyHistogram()
        self._event = sim.schedule(self.every_ns, self._fire)

    def on_exit(self, packet, where, outcome):
        """Exit subscriber: a pod egress (not a drop, not a DPU
        fast-forward) lands in that pod's open window -- the stream that
        feeds the pod's own ``latency_histogram``."""
        if outcome is not None and outcome != DPU_FAST_PATH:
            self._hists[where].record(packet.latency_ns)

    @staticmethod
    def _sample(pod):
        """Combined counter view of one pod as a :class:`CounterSet`.

        NIC pipeline counters (which include the limiter's) under their
        own names, reorder-engine counters prefixed ``reorder_`` and
        core counters summed across data cores prefixed ``core_`` -- one
        flat namespace so a window delta is a single ``delta()`` call.
        """
        combined = CounterSet()
        for name, value in pod.counters.snapshot().items():
            combined.incr(name, value)
        stats = pod.reorder_stats
        for slot in type(stats).__slots__:
            combined.incr("reorder_" + slot, getattr(stats, slot))
        for core in pod.cores:
            core_stats = core.stats
            for slot in type(core_stats).__slots__:
                combined.incr("core_" + slot, getattr(core_stats, slot))
        return combined

    def _row(self, end_ns):
        """One window row from the current per-pod state (no mutation)."""
        pods = {}
        for name in sorted(self._prev):
            delta = self._sample(self.pods[name]).delta(self._prev[name])
            hist = self._hists[name]
            pods[name] = {
                "counters": {
                    key: value for key, value in sorted(delta.items()) if value
                },
                "latency": {
                    "count": hist.count,
                    "mean_ns": round(hist.mean_ns, 3),
                    "p50_ns": hist.percentile(0.50) if hist.count else 0,
                    "p99_ns": hist.percentile(0.99) if hist.count else 0,
                },
            }
        return {
            "window": self._window,
            "start_ns": self._origin + self._window * self.every_ns,
            "end_ns": end_ns,
            "pods": pods,
        }

    def _fire(self):
        self.windows.append(self._row(self.sim.now))
        for name, hist in self._hists.items():
            self._prev[name] = self._sample(self.pods[name]).snapshot()
            hist.reset()
        self._window += 1
        self._event = self.sim.schedule(self.every_ns, self._fire)

    def series(self):
        """The report section: flushed windows plus any open partial one.

        Pure -- reading the series never flushes, so ``report()`` can be
        called any number of times with identical output.
        """
        windows = list(self.windows)
        start = self._origin + self._window * self.every_ns
        if self.sim.now > start:
            windows.append(self._row(self.sim.now))
        return {
            "schema_version": TIMESERIES_SCHEMA_VERSION,
            "every_ns": self.every_ns,
            "windows": windows,
        }

    def restore(self, snapshot):
        if sorted(snapshot["hists"]) != sorted(self._hists):
            raise ValueError(
                f"checkpoint pods {sorted(snapshot['hists'])} do not match "
                f"recorder pods {sorted(self._hists)}"
            )
        super().restore(snapshot)


def flatten_windows(windows, source=None):
    """Flatten window rows into flat table rows for ``format_table``.

    One row per (window, pod); merged fleet series carry a ``shard``
    column, single-run series do not.  Latency converts to microseconds
    and the counter families collapse to the headline ``tx``/``drops``
    columns (the full deltas stay in the JSON artifact).
    """
    from repro.sim.units import MS, US

    rows = []
    for window in windows:
        for pod_name in sorted(window["pods"]):
            pod = window["pods"][pod_name]
            row = {}
            if source is not None:
                row["source"] = source
            if "shard" in window:
                row["shard"] = window["shard"]
            row["window"] = window["window"]
            row["t_ms"] = round(window["start_ns"] / MS, 3)
            row["pod"] = pod_name
            counters = pod["counters"]
            latency = pod["latency"]
            row["tx"] = counters.get("tx_packets", 0)
            row["drops"] = sum(
                value for name, value in counters.items()
                if name.endswith("_drops")
            )
            row["count"] = latency["count"]
            row["mean_us"] = round(latency["mean_ns"] / US, 2)
            row["p50_us"] = round(latency["p50_ns"] / US, 2)
            row["p99_us"] = round(latency["p99_ns"] / US, 2)
            rows.append(row)
    return rows


def validate_series(section):
    """Validate a ``"timeseries"`` report section (or merged variant).

    Raises ``ValueError`` on a malformed section; returns it unchanged
    otherwise.  Checks the schema version, the required per-window keys
    and that window indices are non-decreasing within each shard (merged
    series concatenate shards window-aligned, so indices restart at
    every shard boundary but never go backwards within one).
    """
    if not isinstance(section, dict):
        raise ValueError(f"timeseries section is not a dict: {section!r}")
    version = section.get("schema_version")
    if version != TIMESERIES_SCHEMA_VERSION:
        raise ValueError(
            f"timeseries schema {version!r} is not {TIMESERIES_SCHEMA_VERSION}"
        )
    every_ns = section.get("every_ns")
    if not isinstance(every_ns, int) or every_ns <= 0:
        raise ValueError(f"bad every_ns: {every_ns!r}")
    last = {}
    for position, window in enumerate(section.get("windows", ())):
        where = f"windows[{position}]"
        for key in ("window", "start_ns", "end_ns", "pods"):
            if key not in window:
                raise ValueError(f"{where} is missing {key!r}")
        if window["end_ns"] <= window["start_ns"]:
            raise ValueError(
                f"{where} is empty-spanned: "
                f"[{window['start_ns']}, {window['end_ns']})"
            )
        shard = window.get("shard")
        if shard in last and window["window"] < last[shard]:
            raise ValueError(
                f"{where} goes backwards (window {window['window']} after "
                f"{last[shard]} in shard {shard!r})"
            )
        last[shard] = window["window"]
        for pod_name, pod in window["pods"].items():
            for key in ("counters", "latency"):
                if key not in pod:
                    raise ValueError(
                        f"{where} pod {pod_name!r} is missing {key!r}"
                    )
            for key in ("count", "mean_ns", "p50_ns", "p99_ns"):
                if key not in pod["latency"]:
                    raise ValueError(
                        f"{where} pod {pod_name!r} latency is missing {key!r}"
                    )
    return section
