"""The run report's sections as data: one :data:`SECTIONS` table.

:meth:`repro.scenarios.build.RunHandle.report` and
:func:`repro.fleet.report.merge_run_reports` both loop over
:data:`SECTIONS`, one row per report key in report key order: which
spec field arms it, how a run produces it and how shards fold it.
Every fold is built from one closed set of primitives, each
``fold(shards)`` over ``[(shard index, value), ...]``:
:func:`total` (ints), :func:`counts` (counter dicts, sorted keys),
:func:`histogram` / :func:`summary` (merged ``LatencyHistogram``
snapshots, dumped or summarised), :func:`union` (sorted names),
:func:`tagged` (rows tagged with their shard, concatenated), :func:`first`
and :data:`NOT_MERGED`; :func:`fields` and :func:`by_name` nest them.
Folds run in shard order or sorted-name order, so a merge is
byte-identical for any worker count.  An unarmed row adds no key to a
report and a key no shard carries stays out of the merge, so runs that
do not arm a section keep their historical bytes.  A new section is
one row.
"""

from typing import Callable, NamedTuple

from repro.metrics.histogram import merge_histograms

#: Percentiles carried in latency summaries (label, fraction).
_PERCENTILES = (("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99))


def summarize_histogram(histogram):
    """Deterministic scalar summary of a latency histogram."""
    summary = {"count": histogram.count, "mean_ns": round(histogram.mean_ns, 3),
               "min_ns": histogram.min_ns, "max_ns": histogram.max_ns}
    for label, fraction in _PERCENTILES:
        summary[label] = histogram.percentile(fraction) if histogram.count else 0
    return summary


# -- fold primitives ------------------------------------------------------

def _values(shards):
    return [value for _index, value in shards]


def _at(shards, key):
    """The shards whose value carries ``key``, reduced to ``value[key]``."""
    return [(index, value[key]) for index, value in shards if key in value]


def total(shards):
    return sum(_values(shards))


def counts(shards):
    summed = {}
    for counters in _values(shards):
        for name, value in counters.items():
            summed[name] = summed.get(name, 0) + value
    return dict(sorted(summed.items()))


def histogram(shards):
    return merge_histograms(_values(shards)).checkpoint()


def summary(shards):
    return summarize_histogram(merge_histograms(_values(shards)))


def union(shards):
    return sorted(set().union(*_values(shards)))


def tagged(shards):
    return [{"shard": index, **row} for index, rows in shards for row in rows]


def first(shards):
    return shards[0][1]


NOT_MERGED = None


def fields(**folds):
    """Fold a dict key by key in ``folds`` order; absent keys stay out."""
    def fold(shards):
        merged = {}
        for key, inner in folds.items():
            present = _at(shards, key)
            if present:
                merged[key] = inner(present)
        return merged
    return fold


def by_name(inner):
    """Fold a ``{name: entry}`` dict entry by entry, names sorted."""
    def fold(shards):
        names = sorted(set().union(*_values(shards)))
        return {name: inner(_at(shards, name)) for name in names}
    return fold


# -- the table ------------------------------------------------------------

class Section(NamedTuple):
    """One row of :data:`SECTIONS`."""

    keys: tuple         # the report keys the row owns, in report order
    armed: Callable     # spec -> does a run of it carry ``keys``?
    produce: Callable   # handle -> {key: value}
    merge: Callable     # [(shard index, report)] -> {merged key: value}


def _section(key, armed, produce, fold):
    """A one-key row, merged by ``fold`` over the shards that carry it."""
    merge = fields() if fold is NOT_MERGED else fields(**{key: fold})
    return Section((key,), armed, lambda handle: {key: produce(handle)}, merge)


def _sorted(counter_set):
    return dict(sorted(counter_set.snapshot().items()))


def _pod(pod):
    entry = {
        "transmitted": pod.transmitted(),
        "counters": _sorted(pod.counters),
        "outcomes": dict(sorted(pod.outcomes.items())),
        "latency": pod.latency_histogram.checkpoint(),
    }
    if pod.spec.mode == "plb":
        stats = pod.reorder_stats
        entry["reorder"] = {"in_order": stats.in_order,
                            "best_effort": stats.best_effort,
                            "hol_events": stats.hol_events}
    return entry


def _core(handle):
    spec, sim = handle.spec, handle.sim
    return {
        "scenario": spec.name, "seed": spec.seed, "duration_ns": spec.duration_ns,
        "sim_ns": sim.now, "events": sim.events_processed,
        "pods": {name: _pod(pod) for name, pod in handle.pods.items()},
    }


def _fold_core(shards):
    """The always-present fleet headline, in its own key order."""
    reports = _values(shards)
    pods = [(index, pod) for index, report in shards
            for pod in report["pods"].values()]
    return {
        "shards": len(reports),
        "packets": total(_at(pods, "transmitted")),
        "events": sum(report["events"] for report in reports),
        "sim_ns_total": sum(report["sim_ns"] for report in reports),
        "latency": summary(_at(pods, "latency")),
        "counters": counts(_at(pods, "counters")),
        "outcomes": counts(_at(pods, "outcomes")),
    }


def _uplink(handle):
    uplink = handle.topology.uplink
    return {"members": [name for name, _sink in uplink.members],
            "pinned_flows": uplink.pinned_flows, "counters": _sorted(uplink.counters)}


def _servers(handle):
    servers = {}
    for name, runtime in handle.topology.servers.items():
        entry = {"pods": list(runtime.pods),
                 "dispatch": _sorted(runtime.dispatch.counters)}
        if runtime.dpu is not None:
            entry["dpu"] = {"occupancy": runtime.dpu.occupancy,
                            "counters": _sorted(runtime.dpu.counters)}
        servers[name] = entry
    return servers


def _fold_server(shards):
    """One server's counters: ``pods`` and the DPU ``occupancy`` drop out,
    and ``dpu.counters`` flattens to ``dpu`` (absent while the DPU has
    counted nothing)."""
    merged = {"dispatch": counts(_at(shards, "dispatch"))}
    dpus = [(index, dpu["counters"]) for index, dpu in _at(shards, "dpu")
            if dpu["counters"]]
    if dpus:
        merged["dpu"] = counts(dpus)
    return merged


def _dpu_tier(latency):
    return fields(packets=total, occupancy=total, counters=counts, latency=latency)


def _tiers(handle):
    """AZ-wide per-tier rollup: the host pipeline vs the DPU tier, whose
    servers fold with their latency dumped."""
    host = sum(pod.transmitted() for pod in handle.pods.values())
    tiers = {"host": {"packets": host}}
    dpus = [runtime.dpu for runtime in handle.topology.servers.values()
            if runtime.dpu is not None]
    if dpus:
        tiers["dpu"] = _dpu_tier(histogram)([(index, {
            "packets": dpu.counters.get("fast_forwards"),
            "occupancy": dpu.occupancy,
            "counters": dpu.counters.snapshot(),
            "latency": dpu.latency_histogram.checkpoint(),
        }) for index, dpu in enumerate(dpus)])
    return tiers


def _topology(spec):
    return bool(spec.servers)


#: One row per report key, in report key order.
SECTIONS = (
    Section(("scenario", "seed", "duration_ns", "sim_ns", "events", "pods"),
            lambda spec: True, _core, _fold_core),
    _section("timeseries", lambda spec: spec.timeseries_every_ns is not None,
             lambda handle: handle.telemetry.series(),
             fields(schema_version=first, every_ns=first, windows=tagged)),
    # Not merged: a plan is one pod's phase timeline on its own shard's
    # clock, so there is nothing to fold; it stays in each shard-*.json.
    _section("migration", lambda spec: spec.migration is not None,
             lambda handle: handle.migration.plan.to_dict(), NOT_MERGED),
    _section("uplink", _topology, _uplink,
             fields(members=union, pinned_flows=total, counters=counts)),
    # Merged as counters only: pods and the DPU occupancy drop out.
    _section("servers", _topology, _servers, by_name(_fold_server)),
    # The DPU tier's latency is summarised across shards, not dumped.
    _section("tiers", _topology, _tiers,
             fields(host=fields(packets=total), dpu=_dpu_tier(summary))),
)

#: The row that owns each report key.
ROW = {key: row for row in SECTIONS for key in row.keys}
