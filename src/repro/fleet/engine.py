"""The multi-process sweep engine.

``run_sweep`` fans a list of shards out over a ``multiprocessing`` pool
and folds the per-shard run reports into one fleet-level
:class:`~repro.fleet.report.SweepReport`.  The correctness bar is
strict: **the merged report is byte-identical whether the sweep ran on
1 worker or N.**  Three rules make that hold:

* Workers receive only serialized specs (``ShardSpec.to_dict``) and
  return only the plain-data run report -- no live simulator state ever
  crosses a process boundary, so a shard computes the same report
  in-process (``workers=1`` runs without a pool) or in a worker.
* Results are keyed by shard index and re-sorted before anything reads
  them: ``pool_map`` returns them in the order it was given whatever
  order they finished in, and the merge folds shard 0, 1, 2, ...
  identically under any worker count and any dispatch order.
  ``pool_map`` is the one place allowed to *see* completion order (the
  determinism linter's DET005 bans the completion-order APIs everywhere
  else); it uses it only to hand each finished result to ``on_result``.
* The report carries no wall-clock, host, or pid fields -- wall time is
  printed by the CLI, never written into the artifact.

What may run in a worker: pure simulation from a spec.  What must stay
in the parent: merging (reservoir thinning draws from the parent's
merge rng), report rendering, and anything that touches the ordering of
shards.

Scheduling is for makespan: ``run_sweep`` dispatches its pending shards
longest first, by :func:`~repro.scenarios.build.offered_packets` (a
function of the serialized spec alone, ties broken by shard index), so
the costliest shard never starts last with the other workers idle.

Durability rides on completion order: when ``run_sweep`` is given a
:class:`~repro.runs.store.Run`, each shard result is persisted the
moment it lands, whatever its position, so a killed sweep loses only
the shards that were in flight; the rest are served from disk on resume
and the merged artifact is still byte-identical to an uninterrupted run.
"""

import multiprocessing
import os
import traceback
from functools import partial

from repro.fleet.report import SweepReport, merge_run_reports
from repro.runs.atomic import atomic_write_text
from repro.runs.store import spec_fingerprint, write_checkpoint_file
from repro.scenarios.build import build, offered_packets
from repro.scenarios.spec import ScenarioSpec


class ShardFailure(RuntimeError):
    """A shard raised inside a worker; the message names the shard."""


def _payload_label(payload):
    """Human-readable shard identity for error messages."""
    if isinstance(payload, dict):
        index = payload.get("index")
        axes = payload.get("axes")
        if index is not None:
            label = f"shard {index}"
            if axes:
                label += " " + ", ".join(f"{k}={v}" for k, v in sorted(axes.items()))
            return label
        spec = payload.get("spec")
        if isinstance(spec, dict) and spec.get("name"):
            return f"payload {spec['name']!r}"
    return "payload"


def run_shard(payload):
    """Worker entry point: run one serialized shard, return plain data.

    Top-level (picklable) and dependent only on its payload, so the
    result is identical no matter which process runs it.

    Two optional payload keys wire in mid-shard durability:

    * ``resume_checkpoint`` -- a ``SimCheckpoint`` snapshot; the shard
      restores it and simulates only the remaining sim-time (the report
      is byte-identical to a from-zero run, see
      ``tests/test_properties_checkpoint.py``).
    * ``checkpoint_path`` -- where the shard's periodic checkpointer
      persists its latest snapshot (atomic write), keyed by the shard's
      spec fingerprint so a resume can validate it.
    """
    spec = ScenarioSpec.from_dict(payload["spec"])
    handle = build(spec)
    checkpoint_path = payload.get("checkpoint_path")
    if checkpoint_path is not None and handle.checkpointer is not None:
        fingerprint = payload.get("spec_hash") or spec_fingerprint(spec)
        handle.checkpointer.sink = partial(
            write_checkpoint_file, checkpoint_path, fingerprint
        )
    snapshot = payload.get("resume_checkpoint")
    if snapshot is not None:
        handle.restore_checkpoint(snapshot)
        handle.run(spec.duration_ns - handle.sim.now)
    else:
        handle.run()
    report = handle.report()
    return {"index": payload["index"], "axes": payload["axes"], "report": report}


def _worker_call(task):
    """Run ``fn(payload)`` in a worker, capturing failures as data.

    A raised exception travels back as a plain dict instead of killing
    the pool with a bare remote traceback; the parent re-raises it as a
    :class:`ShardFailure` that names the shard and its axes.  The
    payload's position rides along so the parent can place the outcome.
    """
    fn, position, payload = task
    try:
        return position, {"ok": True, "value": fn(payload)}
    except Exception as error:  # noqa: BLE001 - reported, not swallowed
        return position, {
            "ok": False,
            "label": _payload_label(payload),
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
        }


def _unwrap(outcome):
    if outcome["ok"]:
        return outcome["value"]
    raise ShardFailure(
        f"{outcome['label']} failed with {outcome['error']}\n"
        f"--- worker traceback ---\n{outcome['traceback']}"
    )


def _pool_context():
    """Prefer fork (fast, inherits sys.path); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _export_import_path():
    """Make ``repro`` importable in spawn-started workers.

    Fork children inherit ``sys.path``; spawn children only inherit the
    environment, so runs driven from a source tree (``PYTHONPATH=src``)
    need the package root exported explicitly.
    """
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )


def pool_map(fn, payloads, workers, on_result=None):
    """Parallel map: dispatched and returned in the order given.

    ``workers <= 1`` runs inline -- same code path, no pool -- so a
    parallel run can always be cross-checked against a serial one.

    On a pool, payloads start in the order given (put the longest first)
    and ``on_result(payload, result)`` fires as each result lands,
    whatever its position (the durable run store persists shards through
    it); the returned list is in the order given regardless.  A payload
    that raises does not stop the others: every result that lands is
    still passed to ``on_result``, then the failure at the lowest
    position surfaces as :class:`ShardFailure` naming the shard/axes.
    ``KeyboardInterrupt`` terminates the pool immediately instead of
    hanging in the context-manager join while stragglers finish.
    """
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        results = []
        for payload in payloads:
            try:
                result = fn(payload)
            except KeyboardInterrupt:
                raise
            except Exception as error:
                raise ShardFailure(
                    f"{_payload_label(payload)} failed with "
                    f"{type(error).__name__}: {error}"
                ) from error
            if on_result is not None:
                on_result(payload, result)
            results.append(result)
        return results
    _export_import_path()
    context = _pool_context()
    processes = min(workers, len(payloads))
    pool = context.Pool(processes=processes)
    try:
        outcomes = [None] * len(payloads)
        tasks = [
            (fn, position, payload) for position, payload in enumerate(payloads)
        ]
        # The one sanctioned completion-order site: an ordered imap would
        # hold every finished short shard unrecorded behind the longest.
        for position, outcome in pool.imap_unordered(_worker_call, tasks):  # lint: disable=DET005(outcomes are slotted by position and returned in the order given; completion order only decides when on_result persists a shard)
            outcomes[position] = outcome
            if outcome["ok"] and on_result is not None:
                on_result(payloads[position], outcome["value"])
        pool.close()
        pool.join()
    except BaseException:
        # Covers KeyboardInterrupt and a failing on_result alike: kill
        # stragglers now rather than joining on them.
        pool.terminate()
        pool.join()
        raise
    return [_unwrap(outcome) for outcome in outcomes]


def run_sweep(name, shards, workers=1, seed=42, run=None):
    """Run ``shards`` across ``workers`` processes; return a SweepReport.

    With ``run`` (a :class:`repro.runs.store.Run`), every completed
    shard is durably recorded and shards whose cached result matches the
    current spec fingerprint are served from disk without re-simulating.
    The merge always folds results in shard-index order, so cached and
    fresh shards produce the same bytes as a cold run -- which is what
    lets a pool (``workers > 1``) start its pending shards longest
    first; one worker runs them inline in shard order.
    """
    shards = list(shards)
    if not shards:
        raise ValueError("a sweep needs at least one shard")

    fingerprints = {shard.index: spec_fingerprint(shard.spec) for shard in shards}
    results_by_index = {}
    pending = []
    costs = {}
    for shard in shards:
        fingerprint = fingerprints[shard.index]
        cached = run.load_shard(shard.index, fingerprint) if run is not None else None
        if cached is not None:
            results_by_index[shard.index] = cached
            continue
        payload = shard.to_dict()
        payload["spec_hash"] = fingerprint
        taken_ns = 0
        if run is not None:
            payload["checkpoint_path"] = run.checkpoint_path(shard.index)
            snapshot = run.load_checkpoint(shard.index, fingerprint)
            if snapshot is not None:
                payload["resume_checkpoint"] = snapshot
                taken_ns = snapshot.get("taken_ns", 0)
        costs[shard.index] = offered_packets(shard.spec, taken_ns)
        pending.append(payload)

    if workers > 1:
        # Longest first, so the costliest shard never starts last beside
        # idle workers.  The estimate reads only the spec and the resume
        # point: the dispatch order is the same on every host.
        pending.sort(
            key=lambda payload: (-costs[payload["index"]], payload["index"])
        )

    on_result = None
    if run is not None:
        def on_result(payload, result):
            run.record_shard(payload["index"], payload["spec_hash"], result)

    for result in pool_map(run_shard, pending, workers, on_result=on_result):
        results_by_index[result["index"]] = result

    results = [results_by_index[shard.index] for shard in shards]
    merged = merge_run_reports(
        [result["report"] for result in results], seed=seed
    )
    report = SweepReport(name=name, seed=seed, shard_results=results, merged=merged)
    report.cached_shards = len(shards) - len(pending)
    return report


def sweep_to_json(report):
    """Canonical byte layout for the sweep artifact."""
    import json

    return json.dumps(report.to_dict(), indent=2) + "\n"


def write_sweep_report(report, path):
    atomic_write_text(path, sweep_to_json(report))


def default_workers():
    """A conservative default worker count for ``--workers 0`` (auto)."""
    count = os.cpu_count() or 1
    return max(1, min(8, count - 1))
