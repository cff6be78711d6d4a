"""One repetition of a workload's user path, its spans and its checks.

Two ways through the layers:

* :func:`sweep_repetition` is what ``python -m repro sweep`` does:
  run store, ``run_sweep`` over a process pool, merge, artifact writes.
* :func:`inline_repetition` calls the same public functions one by one
  from this file, so a span can be put around each layer boundary and a
  profiler around ``build()`` + ``run()``.  For the single-pod workloads
  it *is* the user path; for the sweeps it is the traced mirror of
  ``run_sweep``, and the checks require both to produce the same bytes.

Nothing here is timed: the callers in ``child.py`` own the clock.
"""

import contextlib
import hashlib
import os
import time

from repro.core.gateway import default_reorder_queue_count
from repro.core.nic import NicPipeline
from repro.fleet import (
    ShardFailure,
    SweepReport,
    merge_run_reports,
    run_sweep,
    sweep_to_json,
    write_sweep_report,
)
from repro.runs import RunStore, atomic_write_json, canonical_bytes, spec_fingerprint
from repro.scenarios import ScenarioSpec, build

#: Drop counters that make up ``sim.loss_frac`` (RX ring, reorder FIFO,
#: tenant limiter).
LOSS_COUNTERS = ("rx_queue_drops", "reorder_fifo_drops", "rate_limited_drops")


class Spans:
    """In-memory span log: name, start, end, parent span and shard id."""

    def __init__(self):
        self.rows = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, shard=None):
        row = {
            "name": name,
            "shard": shard,
            "parent": self._open[-1] if self._open else None,
            "start_s": time.perf_counter(),
            "end_s": None,
        }
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row["end_s"] = time.perf_counter()
            self._open.pop()

    def seconds(self, where):
        """Summed duration of the spans ``where(row)`` selects."""
        return sum(row["end_s"] - row["start_s"] for row in self.rows if where(row))


class _NoSpans:
    def span(self, name, shard=None):
        return contextlib.nullcontext()


NO_SPANS = _NoSpans()


def _outcome(artifact, results, facts=(), shards_failed=0):
    return {
        "sha256": hashlib.sha256(artifact).hexdigest(),
        "reports": [result["report"] for result in results],
        "facts": list(facts),
        "shards_attempted": len(results) + shards_failed,
        "shards_failed": shards_failed,
    }


def sweep_repetition(workload, seed, tmp, rep, smoke=False, workers=None):
    """The sweep user path: run store -> run_sweep -> both artifacts."""
    shards = workload.shards(seed, smoke)
    run = RunStore(tmp).create(workload.name, seed, shards, run_id=f"rep-{rep}")
    try:
        report = run_sweep(
            workload.name, shards,
            workers=workload.workers if workers is None else workers,
            seed=seed, run=run,
        )
    except ShardFailure:
        # run_sweep stops at the first failing shard and does not say
        # how many others finished, so the whole sweep counts as failed.
        return _outcome(b"", [], shards_failed=len(shards))
    text = sweep_to_json(report)
    write_sweep_report(report, os.path.join(tmp, f"SWEEP-rep-{rep}.json"))
    run.write_merged(text)
    return _outcome(text.encode(), report.shard_results)


def _watch_flow_order(handle):
    """Count egress packets that overtake an earlier one of their flow.

    ``Packet.uid`` rises in emission order, so per-flow order holds iff
    each flow's uids leave the pod ascending.
    """
    last_uid = {}
    violations = [0]
    for pod in handle.pods.values():
        inner = pod.nic.egress_fn

        def tap(packet, outcome, inner=inner):
            if last_uid.get(packet.flow, -1) > packet.uid:
                violations[0] += 1
            last_uid[packet.flow] = packet.uid
            inner(packet, outcome)

        pod.nic.egress_fn = tap
    return violations


def _checkpoint_sink(path, fingerprint):
    """What fleet.run_shard wires up for a shard that has a run store."""
    def persist(snapshot):
        atomic_write_json(path, {
            "schema_version": 1, "spec_hash": fingerprint, "checkpoint": snapshot,
        })

    return persist


def inline_repetition(workload, seed, tmp, rep, smoke=False, spans=NO_SPANS,
                      profiler=None, watch_order=False):
    """build -> run -> report per shard from this file, then merge/store."""
    results = []
    facts = []
    with spans.span("repetition"):
        with spans.span("scenarios.spec_s"):
            shards = workload.shards(seed, smoke)
        run = None
        if workload.sweep:
            with spans.span("runs.store_s"):
                run = RunStore(tmp).create(
                    workload.name, seed, shards, run_id=f"rep-{rep}"
                )
        for shard in shards:
            with spans.span("scenarios.spec_s", shard.index):
                # The same wire round trip run_sweep gives every shard.
                payload = shard.to_dict()
                fingerprint = spec_fingerprint(shard.spec)
                spec = ScenarioSpec.from_dict(payload["spec"])
            if profiler is not None:
                profiler.enable()
            with spans.span("scenarios.build_s", shard.index):
                handle = build(spec)
                if run is not None and handle.checkpointer is not None:
                    handle.checkpointer.sink = _checkpoint_sink(
                        run.checkpoint_path(shard.index), fingerprint
                    )
                if workload.arm is not None:
                    workload.arm(handle)
                violations = _watch_flow_order(handle) if watch_order else [0]
            with spans.span("sim.run_s", shard.index):
                handle.run()
            if profiler is not None:
                profiler.disable()
            with spans.span("scenarios.report_s", shard.index):
                result = {
                    "index": shard.index,
                    "axes": payload["axes"],
                    "report": handle.report(),
                }
                checkpointer = handle.checkpointer
                facts.append({
                    "emitted": sum(source.emitted for source in handle.sources),
                    "order_violations": violations[0],
                    "checkpoints_captured": checkpointer.captured if checkpointer else 0,
                    "checkpoints_skipped": checkpointer.skipped if checkpointer else 0,
                })
                # Tear-down belongs to the layer that built the deployment.
                del handle, checkpointer
            results.append(result)
            if run is not None:
                with spans.span("runs.store_s", shard.index):
                    run.record_shard(shard.index, fingerprint, result)
        if workload.sweep:
            with spans.span("fleet.merge_s"):
                merged = merge_run_reports(
                    [result["report"] for result in results], seed=seed
                )
                report = SweepReport(
                    name=workload.name, seed=seed, shard_results=results,
                    merged=merged,
                )
            with spans.span("fleet.serialize_s"):
                text = sweep_to_json(report)
            with spans.span("runs.store_s"):
                write_sweep_report(report, os.path.join(tmp, f"SWEEP-rep-{rep}.json"))
                run.write_merged(text)
            artifact = text.encode()
        else:
            with spans.span("fleet.serialize_s"):
                artifact = canonical_bytes(results[0]["report"])
    return _outcome(artifact, results, facts)


def repetition(workload, seed, tmp, rep, smoke=False):
    """One untraced repetition of the workload's user path."""
    if workload.sweep:
        return sweep_repetition(workload, seed, tmp, rep, smoke)
    return inline_repetition(workload, seed, tmp, rep, smoke)


def summarize(reports, seed):
    """What the modelled gateway did in one repetition (all deterministic).

    ``per_layer`` holds the counts that are per-layer metrics, under
    their ``BENCHMARK.json`` names.
    """
    merged = merge_run_reports(reports, seed=seed)
    counters = merged["counters"]
    rx = counters.get("rx_packets", 0)
    uplink = merged.get("uplink")
    offered = uplink["counters"]["forwarded"] if uplink else rx
    fast = merged.get("tiers", {}).get("dpu", {}).get("packets", 0)
    reorder = [
        pod["reorder"] for report in reports for pod in report["pods"].values()
    ]
    in_order = sum(stats["in_order"] for stats in reorder)
    best_effort = sum(stats["best_effort"] for stats in reorder)

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "pkts_offered": offered,
        "sim_delivered_frac": share(merged["packets"] + fast, offered),
        "per_layer": {
            "sim.events": merged["events"],
            "sim.events_per_pkt": share(merged["events"], offered),
            "sim.p99_us": merged["latency"]["p99_ns"] / 1000,
            "sim.loss_frac": share(
                sum(counters.get(name, 0) for name in LOSS_COUNTERS), offered
            ),
            "workloads.pkts_offered": offered,
            "core.nic.rx_drop_frac": share(counters.get("rx_queue_drops", 0), rx),
            "core.ratelimit.drop_frac": share(
                counters.get("rate_limited_drops", 0), rx
            ),
            "core.plb.best_effort_frac": share(best_effort, in_order + best_effort),
            "core.plb.hol_events": sum(stats["hol_events"] for stats in reorder),
            "telemetry.windows": sum(
                len(report.get("timeseries", {}).get("windows", ()))
                for report in reports
            ),
            "topology.pinned_flows": uplink["pinned_flows"] if uplink else 0,
            "topology.dpu_fast_frac": share(fast, offered),
        },
    }


def _conserves(spec, report, fact=None):
    """offered = delivered + every terminal drop + what is still inside.

    Checked per pod on the report alone, so it covers pool-run shards
    too; what is still inside must fit the pod's RX rings, cores and
    reorder FIFOs.  ``fact`` (inline repetitions only) adds the source's
    own emission count.
    """
    host_rx = 0
    for pod_spec in spec.all_pods:
        pod = report["pods"][pod_spec.name]
        counters = pod["counters"]
        rx = counters.get("rx_packets", 0)
        in_flight = rx - sum(
            counters.get(name, 0) for name in NicPipeline.TERMINAL_COUNTERS
        )
        queues = pod_spec.reorder_queues or default_reorder_queue_count(
            pod_spec.data_cores
        )
        # RX rings and busy cores, plus reorder FIFOs at their 4096 depth.
        room = pod_spec.data_cores * (pod_spec.rx_capacity + 1) + 4096 * queues
        sent = counters.get("tx_packets", 0)
        if not 0 <= in_flight <= room:
            return False
        if not sent == pod["transmitted"] == pod["latency"]["count"] == sum(
            pod["outcomes"].values()
        ):
            return False
        host_rx += rx
    offered = host_rx
    if "uplink" in report:
        offered = report["uplink"]["counters"]["forwarded"]
        fast = report["tiers"].get("dpu", {}).get("packets", 0)
        if offered != host_rx + fast:
            return False
    return fact is None or fact["emitted"] == offered


def check_outcome(workload, seed, outcome, smoke=False):
    """Output checks on one repetition: ``[(name, passed)]``."""
    shards = workload.shards(seed, smoke)
    reports = outcome["reports"]
    facts = outcome["facts"] or [None] * len(reports)
    checks = [
        (f"conservation.shard{shard.index}", _conserves(shard.spec, report, fact))
        for shard, report, fact in zip(shards, reports, facts)
    ]
    if workload.in_order:
        reordered = sum(
            pod["reorder"]["best_effort"] + pod["reorder"]["hol_events"]
            for report in reports for pod in report["pods"].values()
        ) + sum(fact["order_violations"] for fact in outcome["facts"])
        checks.append(("zero_reordering", reordered == 0))
    if reports and not smoke:
        # p99 needs at least 100 samples beyond it.
        samples = sum(
            pod["latency"]["count"]
            for report in reports for pod in report["pods"].values()
        )
        checks.append(("latency_samples_10k", samples >= 10_000))
    return checks
