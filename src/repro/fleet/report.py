"""Fleet-level merging and the ``SweepReport`` artifact.

Per-shard run reports (see :meth:`repro.scenarios.build.RunHandle.report`)
are folded into one fleet view with the same machinery single runs use:
:meth:`LatencyHistogram.merge` for latency (aggregate-exact, reservoir
approximate) and :class:`CounterSet` for counters.  Merging is strictly
shard-order: the engine hands reports over in shard-index order however
the pool dispatched them, so the merged artifact is byte-identical under
any worker count.

``SweepReport`` follows the repo-wide tabular convention: ``to_dict()``
for the JSON artifact and ``rows()`` (list of flat dicts) for tooling
and :func:`repro.experiments.common.format_table`.
"""

from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram
from repro.sim.units import US

SCHEMA_VERSION = 1

#: Percentiles carried in latency summaries (label, fraction).
_PERCENTILES = (("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99))


def summarize_histogram(histogram):
    """Deterministic scalar summary of a latency histogram."""
    summary = {
        "count": histogram.count,
        "mean_ns": round(histogram.mean_ns, 3),
        "min_ns": histogram.min_ns,
        "max_ns": histogram.max_ns,
    }
    for label, fraction in _PERCENTILES:
        summary[label] = histogram.percentile(fraction) if histogram.count else 0
    return summary


def merge_run_reports(run_reports, seed=42):
    """Fold per-shard run reports into the fleet-level aggregate."""
    histogram = LatencyHistogram(seed=seed)
    counters = CounterSet()
    outcomes = CounterSet()
    packets = 0
    events = 0
    sim_ns = 0
    for report in run_reports:
        events += report["events"]
        sim_ns += report["sim_ns"]
        for pod in report["pods"].values():
            packets += pod["transmitted"]
            for name, value in pod["counters"].items():
                counters.incr(name, value)
            for name, value in pod["outcomes"].items():
                outcomes.incr(name, value)
            histogram.merge(LatencyHistogram.from_dict(pod["latency"]))
    merged = {
        "shards": len(run_reports),
        "packets": packets,
        "events": events,
        "sim_ns_total": sim_ns,
        "latency": summarize_histogram(histogram),
        "counters": dict(sorted(counters.snapshot().items())),
        "outcomes": dict(sorted(outcomes.snapshot().items())),
    }
    timeseries = _merge_timeseries(run_reports)
    # Only when some shard recorded windows: telemetry-less sweeps keep
    # their exact historical artifact bytes.
    if timeseries is not None:
        merged["timeseries"] = timeseries
    topology = _merge_topology(run_reports, seed=seed)
    if topology is not None:
        merged.update(topology)
    return merged


def _merge_topology(run_reports, seed=42):
    """Fold per-shard uplink/servers/tiers sections, worker-invariantly.

    Scalars and counters sum; the DPU tier's fast-path latency merges
    through :class:`LatencyHistogram` exactly like pod latency.  Every
    fold is either shard-order (submission order) or keyed by sorted
    names, so the merged sections are byte-identical for any worker
    count.  Returns None when no shard ran a topology, keeping
    single-server sweep artifacts at their exact historical bytes.
    """
    shards = [report for report in run_reports if "uplink" in report]
    if not shards:
        return None
    uplink_counters = CounterSet()
    pinned = 0
    members = set()
    server_counters = {}        # server name -> {"dispatch": CounterSet, ...}
    host_packets = 0
    dpu_counters = CounterSet()
    dpu_packets = 0
    dpu_occupancy = 0
    dpu_latency = LatencyHistogram(seed=seed)
    saw_dpu = False
    for report in shards:
        uplink = report["uplink"]
        members.update(uplink["members"])
        pinned += uplink["pinned_flows"]
        for name, value in uplink["counters"].items():
            uplink_counters.incr(name, value)
        for name in sorted(report["servers"]):
            entry = report["servers"][name]
            folded = server_counters.setdefault(
                name, {"dispatch": CounterSet(), "dpu": CounterSet()}
            )
            for key, value in entry["dispatch"].items():
                folded["dispatch"].incr(key, value)
            for key, value in entry.get("dpu", {}).get("counters", {}).items():
                folded["dpu"].incr(key, value)
        tiers = report["tiers"]
        host_packets += tiers["host"]["packets"]
        dpu = tiers.get("dpu")
        if dpu is not None:
            saw_dpu = True
            dpu_packets += dpu["packets"]
            dpu_occupancy += dpu["occupancy"]
            for key, value in dpu["counters"].items():
                dpu_counters.incr(key, value)
            dpu_latency.merge(LatencyHistogram.from_dict(dpu["latency"]))
    servers = {}
    for name in sorted(server_counters):
        folded = server_counters[name]
        entry = {"dispatch": dict(sorted(folded["dispatch"].snapshot().items()))}
        dpu_snapshot = folded["dpu"].snapshot()
        if dpu_snapshot:
            entry["dpu"] = dict(sorted(dpu_snapshot.items()))
        servers[name] = entry
    tiers = {"host": {"packets": host_packets}}
    if saw_dpu:
        tiers["dpu"] = {
            "packets": dpu_packets,
            "occupancy": dpu_occupancy,
            "counters": dict(sorted(dpu_counters.snapshot().items())),
            "latency": summarize_histogram(dpu_latency),
        }
    return {
        "uplink": {
            "members": sorted(members),
            "pinned_flows": pinned,
            "counters": dict(sorted(uplink_counters.snapshot().items())),
        },
        "servers": servers,
        "tiers": tiers,
    }


def _merge_timeseries(run_reports):
    """Window-aligned concatenation of per-shard series, in shard order.

    Percentiles cannot be re-derived from per-window summaries, so the
    fleet view does not try to fold windows across shards -- it tags
    every window row with its shard index and concatenates.  Shard order
    is submission order, so the merged series is byte-identical for any
    worker count (the same argument as the scalar merge above).
    """
    from repro.telemetry import TIMESERIES_SCHEMA_VERSION

    windows = []
    every_ns = None
    for index, report in enumerate(run_reports):
        section = report.get("timeseries")
        if section is None:
            continue
        if every_ns is None:
            every_ns = section["every_ns"]
        for row in section["windows"]:
            entry = {"shard": index}
            entry.update(row)
            windows.append(entry)
    if every_ns is None:
        return None
    return {
        "schema_version": TIMESERIES_SCHEMA_VERSION,
        "every_ns": every_ns,
        "windows": windows,
    }


def _shard_row(result):
    """Flatten one shard result into a table row."""
    report = result["report"]
    pods = report["pods"]
    transmitted = sum(pod["transmitted"] for pod in pods.values())
    row = {"shard": result["index"]}
    row.update(result["axes"])
    row["seed"] = report["seed"]
    row["packets"] = transmitted
    row["events"] = report["events"]
    latencies = [
        LatencyHistogram.from_dict(pod["latency"]) for pod in pods.values()
    ]
    # A report can legitimately carry zero pods (a control-plane-only
    # scenario); its row gets zeroed latency instead of an IndexError.
    if not latencies:
        row["mean_us"] = row["p99_us"] = 0.0
        return row
    merged = latencies[0] if len(latencies) == 1 else _merge_all(latencies)
    if merged.count:
        row["mean_us"] = round(merged.mean_ns / US, 2)
        row["p99_us"] = round(merged.percentile(0.99) / US, 2)
    else:
        row["mean_us"] = row["p99_us"] = 0.0
    return row


def _merge_all(histograms):
    # Merge into a fresh histogram: LatencyHistogram.merge mutates its
    # receiver, and histograms[0] may be (or alias) a caller-held pod
    # histogram that must survive rows() unchanged.
    first = histograms[0]
    base = LatencyHistogram(
        bucket_factor=first.bucket_factor, max_samples=first.max_samples
    )
    for other in histograms:
        base.merge(other)
    return base


class SweepReport:
    """The merged result of a sweep, with the common tabular shape."""

    def __init__(self, name, seed, shard_results, merged):
        self.name = name
        self.seed = seed
        self.shard_results = list(shard_results)
        self.merged = merged

    def rows(self):
        """One flat dict per shard (axes become columns)."""
        return [_shard_row(result) for result in self.shard_results]

    def to_dict(self):
        """The JSON artifact: shard summaries + the fleet aggregate.

        Deliberately excludes worker count, wall time, host facts and
        raw reservoir samples: everything in the artifact is a function
        of (spec, seed) alone, so ``--workers 1`` and ``--workers N``
        write identical bytes.
        """
        shards = []
        for result, row in zip(self.shard_results, self.rows()):
            entry = dict(row)
            entry["scenario"] = result["report"]["scenario"]
            entry["duration_ns"] = result["report"]["duration_ns"]
            shards.append(entry)
        return {
            "schema_version": SCHEMA_VERSION,
            "sweep": self.name,
            "seed": self.seed,
            "shards": shards,
            "merged": self.merged,
        }

    def render(self):
        """Human table: per-shard rows plus the merged headline."""
        from repro.experiments.common import format_table

        merged = self.merged
        latency = merged["latency"]
        lines = [
            f"sweep: {self.name} (seed {self.seed}, "
            f"{merged['shards']} shard(s))",
            format_table(self.rows()),
            f"  fleet: {merged['packets']} packets, {merged['events']} events",
        ]
        if latency["count"]:
            lines.append(
                f"  latency: mean {latency['mean_ns'] / US:.1f} us / "
                f"p99 {latency['p99_ns'] / US:.1f} us / "
                f"max {latency['max_ns'] / US:.1f} us"
            )
        drops = {
            name: value
            for name, value in merged["counters"].items()
            if name.endswith("_drops") and value
        }
        lines.append(f"  drops: {drops or 'none'}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<SweepReport {self.name}: {len(self.shard_results)} shard(s)>"
