"""The ``python -m repro runs`` query layer.

Reads what the toolkit has accumulated on disk -- ``RUNS/<run-id>/``
directories, merged ``SWEEP_*.json`` artifacts and the benchmark
ledger's ``BENCH_<pr>.json`` (``benchmarks/trajectory/``) -- and
renders cross-run trajectory tables with the repo's
:func:`~repro.experiments.common.format_table`.  Everything here is a
pure function of the files it reads: listing or comparing runs never
mutates the store.

Imported lazily by the CLI (it pulls in :mod:`repro.fleet.report`,
which itself imports :mod:`repro.runs` -- eager import here would be a
cycle).
"""

import os

from repro.runs.atomic import read_json
from repro.runs.store import MERGED_NAME, RunStore, RunStoreError


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

    Completed shards render through the same ``_shard_row`` flattening
    the sweep artifact uses; shards not yet on disk (or stale against
    the manifest's spec hash) get a ``pending`` status row so an
    interrupted run is legible at a glance.
    """
    from repro.fleet.report import _shard_row

    run = store.open(run_id)
    rows = []
    for entry in run.manifest.get("shards", ()):
        result = run.load_shard(entry["index"], entry["spec_hash"])
        if result is None:
            row = {"shard": entry["index"]}
            row.update(entry.get("axes", {}))
            row["status"] = "pending"
        else:
            row = _shard_row(result)
            row["status"] = "done"
        rows.append(row)
    return run, rows


def show_timeseries_rows(store, run_id):
    """Windowed rows for one run's completed shards.

    Each completed shard's report contributes its ``"timeseries"``
    windows (tagged with the shard index), flattened to one row per
    (shard, window, pod) -- the same shape ``compare --timeseries``
    renders for merged artifacts.  Runs without windowed telemetry
    yield no rows.
    """
    from repro.telemetry import flatten_windows

    run = store.open(run_id)
    rows = []
    for entry in run.manifest.get("shards", ()):
        result = run.load_shard(entry["index"], entry["spec_hash"])
        if result is None:
            continue
        section = result["report"].get("timeseries")
        if section is None:
            continue
        tagged = [
            dict(window, shard=entry["index"])
            for window in section["windows"]
        ]
        rows.extend(flatten_windows(tagged))
    return run, rows


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


def cmd_runs(args, out=print, err=None):
    """Entry point behind ``python -m repro runs list|show|compare``."""
    from repro.experiments.common import format_table

    store = RunStore(args.runs_dir)
    try:
        if args.runs_command == "list":
            rows = list_rows(store)
            if not rows:
                out(f"no runs under {store.root!r}")
                return 0
            out(format_table(rows))
            return 0
        if args.runs_command == "show":
            if getattr(args, "timeseries", False):
                run, rows = show_timeseries_rows(store, args.run_id)
                if not rows:
                    out(
                        f"run {run.run_id} has no windowed telemetry "
                        "(arm spec.timeseries_every_ns, e.g. sweep "
                        "--timeseries-every-ms)"
                    )
                    return 0
                out(f"run {run.run_id}: windowed telemetry")
                out(format_table(rows))
                return 0
            run, rows = show_rows(store, args.run_id)
            manifest = run.manifest
            out(
                f"run {run.run_id}: sweep {manifest.get('sweep')!r}, "
                f"seed {manifest.get('seed')}, "
                f"{len(manifest.get('shards', ()))} shard(s)"
            )
            out(format_table(rows))
            return 0
        if getattr(args, "timeseries", False):
            rows = compare_timeseries_rows(args.artifacts, store)
            if not rows:
                out("no windowed telemetry in the given artifacts")
                return 0
            out(format_table(rows))
            return 0
        rows = compare_rows(args.artifacts, store)
        out(format_table(rows))
        return 0
    except RunStoreError as error:
        (err or out)(str(error))
        return 2
