"""The ``python -m repro runs`` query layer.

Reads what the toolkit has accumulated on disk -- ``RUNS/<run-id>/``
directories, merged ``SWEEP_*.json`` artifacts and the benchmark
ledger's ``BENCH_<pr>.json`` (``benchmarks/trajectory/``) -- into the
cross-run trajectory rows that the CLI's ``runs list|show|compare``
render with :func:`~repro.table.format_table`.  Everything
here is a pure function of the files it reads: listing or comparing
runs never mutates the store.

:func:`shard_row` is also the sweep artifact's per-shard row
(:class:`repro.fleet.report.SweepReport`), kept here so that ``runs
show`` renders a run without loading the simulator.
"""

import os

from repro.metrics.histogram import merge_histograms
from repro.runs.atomic import read_json
from repro.runs.store import MERGED_NAME, RunStoreError


def shard_row(result):
    """Flatten one shard result into a table row."""
    report = result["report"]
    pods = report["pods"].values()
    row = {"shard": result["index"]}
    row.update(result["axes"])
    row["seed"] = report["seed"]
    row["packets"] = sum(pod["transmitted"] for pod in pods)
    row["events"] = report["events"]
    # No pods (a control-plane-only run) or no latencies: a zeroed row.
    latency = merge_histograms([pod["latency"] for pod in pods])
    if latency.count:
        # Latencies are in ns; repro.sim.units.US would load the engine.
        row["mean_us"] = round(latency.mean_ns / 1_000, 2)
        row["p99_us"] = round(latency.percentile(0.99) / 1_000, 2)
    else:
        row["mean_us"] = row["p99_us"] = 0.0
    return row


def list_rows(store):
    """One row per run directory: identity plus completion state."""
    rows = []
    for run in store.runs():
        manifest = run.manifest
        total = len(manifest.get("shards", ()))
        done = len(run.completed_indices())
        rows.append({
            "run": run.run_id,
            "sweep": manifest.get("sweep", "-"),
            "seed": manifest.get("seed", "-"),
            "quick": "yes" if manifest.get("quick") else "no",
            "shards": f"{done}/{total}",
            "merged": "yes" if run.load_merged() is not None else "no",
        })
    return rows


def show_rows(store, run_id):
    """Per-shard rows for one run, from its cached shard results.

    Completed shards render through the same :func:`shard_row`
    flattening the sweep artifact uses; shards not yet on disk (or stale
    against the manifest's spec hash) get a ``pending`` status row so an
    interrupted run is legible at a glance.
    """
    run = store.open(run_id)
    rows = []
    for entry in run.manifest.get("shards", ()):
        result = run.load_shard(entry["index"], entry["spec_hash"])
        if result is None:
            row = {"shard": entry["index"]}
            row.update(entry.get("axes", {}))
            row["status"] = "pending"
        else:
            row = shard_row(result)
            row["status"] = "done"
        rows.append(row)
    return run, rows


def show_timeseries_rows(store, run_id):
    """Windowed rows for one run's completed shards.

    Their windows fold through the merge's own timeseries row (tagged
    with the shard index) and flatten to one row per (shard, window,
    pod), as ``compare --timeseries`` renders merged artifacts.  Runs
    without windowed telemetry yield no rows.
    """
    from repro.scenarios.sections import ROW
    from repro.telemetry import flatten_windows

    run = store.open(run_id)
    shards = []
    for entry in run.manifest.get("shards", ()):
        result = run.load_shard(entry["index"], entry["spec_hash"])
        if result is not None:
            shards.append((entry["index"], result["report"]))
    merged = ROW["timeseries"].merge(shards)
    windows = merged["timeseries"]["windows"] if merged else []
    return run, flatten_windows(windows)


def compare_timeseries_rows(operands, store):
    """Windowed trajectory rows across sweep artifacts, operand order.

    Bench artifacts have no windows and contribute nothing; sweep
    artifacts contribute their merged window-aligned concatenation,
    labeled per operand so trajectories line up across runs.
    """
    from repro.telemetry import flatten_windows

    rows = []
    for operand in operands:
        label, kind, payload = resolve_operand(operand, store)
        if kind != "sweep":
            continue
        section = payload.get("merged", {}).get("timeseries")
        if section is None:
            continue
        rows.extend(flatten_windows(section["windows"], source=label))
    return rows


def classify_artifact(payload):
    """``"sweep"``, ``"bench"`` or ``None`` for a loaded JSON artifact."""
    if not isinstance(payload, dict):
        return None
    if "sweep" in payload and "merged" in payload:
        return "sweep"
    if "schema" in payload and isinstance(payload.get("workloads"), dict):
        return "bench"
    return None


def _sweep_rows(source, payload):
    merged = payload.get("merged", {})
    latency = merged.get("latency", {})
    return [{
        "source": source,
        "kind": "sweep",
        "name": payload.get("sweep", "-"),
        "seed": payload.get("seed", "-"),
        "shards": merged.get("shards", "-"),
        "packets": merged.get("packets", "-"),
        "events": merged.get("events", "-"),
        "p99_ns": latency.get("p99_ns", "-"),
        "mean_ns": latency.get("mean_ns", "-"),
    }]


def _bench_rows(source, payload):
    """One row per workload of a ``benchmarks/perf/run.py --out`` ledger."""
    rows = []
    for name, entry in payload["workloads"].items():
        if not isinstance(entry, dict):
            continue
        metrics = entry.get("untraced", {}).get("metrics", {})
        rows.append({
            "source": source,
            "kind": "bench",
            "name": name,
            "seed": payload.get("seed", "-"),
            "commit": str(payload.get("commit", "-"))[:7],
            **{key: metrics.get(key, "-") for key in (
                "wall_s", "pkts_per_s", "peak_rss_mb", "setup_s",
                "sim_delivered_frac",
            )},
        })
    return rows


def resolve_operand(operand, store):
    """Load one ``runs compare`` operand: a run id or an artifact path.

    Run ids resolve to the run's merged artifact (raises
    :class:`RunStoreError` when the run exists but has not produced one
    yet); anything else is read as a JSON file.  Returns ``(label,
    kind, payload)``.
    """
    if os.path.isdir(os.path.join(store.root, operand)):
        run = store.open(operand)
        payload = run.load_merged()
        if payload is None:
            raise RunStoreError(
                f"run {operand!r} has no merged artifact yet "
                f"({MERGED_NAME} appears when the sweep completes or resumes "
                "to completion)"
            )
        return operand, "sweep", payload
    payload = read_json(operand)
    if payload is None:
        raise RunStoreError(
            f"{operand!r} is neither a run id under {store.root!r} "
            "nor a readable JSON artifact"
        )
    kind = classify_artifact(payload)
    if kind is None:
        raise RunStoreError(
            f"{operand!r} is not a SWEEP or BENCH artifact "
            "(expected 'sweep'+'merged', or 'schema' + a 'workloads' mapping)"
        )
    return os.path.basename(operand), kind, payload


def compare_rows(operands, store):
    """Trajectory rows across artifacts/runs, in operand order."""
    rows = []
    for operand in operands:
        label, kind, payload = resolve_operand(operand, store)
        if kind == "sweep":
            rows.extend(_sweep_rows(label, payload))
        else:
            rows.extend(_bench_rows(label, payload))
    return rows
