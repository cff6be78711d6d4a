"""The multi-process sweep engine.

``run_sweep`` fans a list of shards out over forked children, one shard
per child, and folds the per-shard run reports into one fleet-level
:class:`~repro.fleet.report.SweepReport`.  The correctness bar is
strict: **the merged report is byte-identical whether the sweep ran on
1 worker or N.**  Three rules make that hold:

* Workers inherit only serialized specs (``ShardSpec.to_dict``) and
  return only the plain-data run report, as ``marshal`` bytes (which
  refuse anything else) -- no live simulator state ever crosses a
  process boundary, so a shard computes the same report in-process
  (``workers=1`` forks nothing) or in a child.
* Results are keyed by shard index and re-sorted before anything reads
  them: ``pool_map`` returns them in the order it was given whatever
  order they finished in, and the merge folds shard 0, 1, 2, ...
  identically under any worker count and any dispatch order.
  ``pool_map`` is the one place allowed to *see* completion order (the
  determinism linter's DET005 bans the completion-order APIs everywhere
  else); it uses it only to hand each finished result to ``on_result``.
* The report carries no wall-clock, host, or pid fields -- wall time is
  printed by the CLI, never written into the artifact.

One shard at a time per process: a built deployment is a reference
cycle, so the inline loop collects its previous shard before the next
one, and a child runs one shard and exits.  No path loads
``multiprocessing``, ``pickle`` or ``socket``; ``select`` and ``signal``
load only when a map forks.

What may run in a worker: pure simulation from a spec.  What must stay
in the parent: merging, report rendering, and anything that touches
the ordering of shards.

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

import gc
import marshal
import os
import sys
from functools import partial

from repro.fleet.report import SweepReport, merge_run_reports
from repro.runs.atomic import atomic_write_text
from repro.runs.store import spec_fingerprint, write_checkpoint_file
from repro.scenarios.build import build, offered_packets
from repro.scenarios.spec import ScenarioSpec


class ShardFailure(RuntimeError):
    """A shard raised, returned what ``marshal`` refuses, or lost its
    worker before a result; the message names the shard."""


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

    Dependent only on its payload, so the result is identical no matter
    which process runs it.

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


def _unwrap(outcome):
    if outcome["ok"]:
        return outcome["value"]
    message = f"{outcome['label']} failed with {outcome['error']}"
    if outcome["traceback"]:
        message += f"\n--- worker traceback ---\n{outcome['traceback']}"
    raise ShardFailure(message)


def _child(fn, payload, fd):
    """A forked child's whole life: run one payload, write its outcome
    to ``fd`` as ``marshal`` bytes (a result that is not plain data
    fails its shard), leave by ``os._exit`` -- status 0 once every byte
    is written -- so nothing of the parent's stack runs twice."""
    status = 1
    try:
        gc.freeze()  # what it inherits is never this child's garbage
        try:
            data = marshal.dumps({"ok": True, "value": fn(payload)})
        except Exception as error:  # noqa: BLE001 - reported, not swallowed
            import traceback

            data = marshal.dumps({
                "ok": False,
                "label": _payload_label(payload),
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
            })
        with open(fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def pool_map(fn, payloads, workers, on_result=None):
    """Parallel map: dispatched and returned in the order given.

    ``workers <= 1`` (or a host without ``os.fork``) runs inline -- same
    code path, no child -- so a parallel run can always be cross-checked
    against a serial one.  The inline loop runs ``gc.collect()`` before
    the second and later payloads, never after the last, and freezes
    what its caller held before the first (unfrozen after the last,
    unless the caller had frozen objects itself), so a collection walks
    only the shards.

    Otherwise each payload runs in its own forked child (see
    :func:`_child`), at most ``workers`` at once, started in the order
    given (put the longest first).  ``on_result(payload, result)`` fires
    as each result lands, whatever its position (the durable run store
    persists shards through it); the returned list is in the order given
    regardless.  A payload that raises, returns what ``marshal``
    refuses or exits without a result does not stop the others: every
    result that lands still reaches ``on_result``, then the failure at
    the lowest position surfaces as :class:`ShardFailure` naming the
    shard/axes.  No child outlives the call: on a raise (a failing
    ``on_result``, ``KeyboardInterrupt``) the running ones are killed.
    """
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1 or not hasattr(os, "fork"):
        results = []
        freeze = not gc.get_freeze_count()
        if freeze:
            gc.freeze()
        try:
            for position, payload in enumerate(payloads):
                if position:
                    gc.collect()  # free the previous shard first
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
        finally:
            if freeze:
                gc.unfreeze()
        return results
    import select
    import signal

    outcomes = [None] * len(payloads)
    running = {}  # the read end of a child's pipe -> (pid, position)
    started = 0
    try:
        while started < len(payloads) or running:
            if started < len(payloads) and len(running) < workers:
                read_fd, write_fd = os.pipe()
                sys.stdout.flush()  # or the child would print it again
                sys.stderr.flush()
                pid = os.fork()
                if not pid:
                    _child(fn, payloads[started], write_fd)
                running[open(read_fd, "rb")] = pid, started
                os.close(write_fd)
                started += 1
                continue
            # The one sanctioned completion-order site: an ordered wait
            # would hold every finished short shard unrecorded behind the
            # longest.
            ready, _, _ = select.select(list(running), (), ())  # lint: disable=DET005(outcomes are slotted by position and returned in the order given; completion order only decides when on_result persists a shard)
            for pipe in ready:
                data = pipe.read()  # the child writes its outcome whole
                pid, position = running[pipe]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del running[pipe]
                pipe.close()
                outcome = marshal.loads(data) if data and not status else {
                    "ok": False, "label": _payload_label(payloads[position]),
                    "error": f"no result (its worker exited with status {status})",
                    "traceback": "",
                }
                outcomes[position] = outcome
                if outcome["ok"] and on_result is not None:
                    on_result(payloads[position], outcome["value"])
    finally:
        for pipe, (pid, _position) in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # only a raise leaves any running
            os.waitpid(pid, 0)
    return [_unwrap(outcome) for outcome in outcomes]


def run_sweep(name, shards, workers=1, seed=42, run=None):
    """Run ``shards`` across ``workers`` processes; return a SweepReport.

    With ``run`` (a :class:`repro.runs.store.Run`), every completed
    shard is durably recorded and shards whose cached result matches the
    current spec fingerprint are served from disk without re-simulating.
    The merge always folds results in shard-index order, so cached and
    fresh shards produce the same bytes as a cold run -- which is what
    lets the fork runner (``workers > 1``) start its pending shards longest
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
    merged = merge_run_reports([result["report"] for result in results])
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
