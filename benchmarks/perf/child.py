"""One fresh process of one workload (started by ``run.py``, not by hand).

``--trace 0``: set up (imports, temp run store, one checked warm-up
repetition), then ``--seconds`` worth of timed repetitions, tracing off.
``--trace 1``: warm-up, one untraced repetition for reference, one span
repetition, one profiled repetition, then the layer probes.

Prints one JSON object: what was measured, what was checked.
"""

import argparse
import cProfile
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import driver
from attribution import attribute
from repro.perf.harness import host_metadata
from workloads import WORKLOADS


def _peak_rss_mb():
    """Largest resident set of this process or any pool worker it reaped."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    outcome = fn()
    return time.perf_counter() - start, outcome


def _corrupt(outcome):
    """Test hook: lose one delivered packet from the first report."""
    pod = next(iter(outcome["reports"][0]["pods"].values()))
    pod["counters"]["tx_packets"] -= 1
    outcome["sha256"] = "corrupted"


class Ledger:
    """Operations attempted and failed: shard runs plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def shards(self, outcome):
        self.attempted += outcome["shards_attempted"]
        if outcome["shards_failed"]:
            self.failed.append(f"{outcome['shards_failed']} shard run(s)")

    def checks(self, checks):
        for name, passed in checks:
            self.attempted += 1
            if not passed:
                self.failed.append(name)


def _warm_up(workload, args, tmp, ledger, workers=None):
    """The untimed first repetition, checked (with the flow-order tap)."""
    if workload.sweep:
        warm = driver.sweep_repetition(
            workload, args.seed, tmp, "warm", args.smoke, workers=workers
        )
    else:
        warm = driver.inline_repetition(
            workload, args.seed, tmp, "warm", args.smoke,
            watch_order=workload.in_order,
        )
    if args.corrupt:
        _corrupt(warm)
    ledger.shards(warm)
    ledger.checks(driver.check_outcome(workload, args.seed, warm, args.smoke))
    return warm


def timed_child(workload, args, tmp, ledger):
    seed, smoke = args.seed, args.smoke
    warm = _warm_up(workload, args, tmp, ledger)
    setup_s = time.time() - args.spawned_at
    # Keep only the summary: reports held here would count in peak_rss_mb.
    sim = driver.summarize(warm.pop("reports"), seed)
    # The repetition count comes from constants, never from this run's
    # own timing, so the work done repeats exactly.  At least two, so
    # that the fastest repetition is a choice.
    reps = 2 if smoke else max(2, round(args.seconds / workload.size()["rep_s"]))
    walls = []
    shas = {warm["sha256"]}
    for rep in range(reps):
        wall_s, outcome = _timed(
            lambda rep=rep: driver.repetition(workload, seed, tmp, rep, smoke)
        )
        walls.append(wall_s)
        shas.add(outcome["sha256"])
        ledger.shards(outcome)
        del outcome
    ledger.checks([("same_sha256_every_repetition", len(shas) == 1)])
    return {"walls_s": walls, "setup_s": setup_s, "sha256": warm["sha256"], "sim": sim}


def traced_child(workload, args, tmp, ledger):
    seed, smoke = args.seed, args.smoke
    # One worker: the serial reference a pool's merged bytes must equal.
    warm = _warm_up(workload, args, tmp, ledger, workers=1)
    untraced_s, untraced = _timed(
        lambda: driver.repetition(workload, seed, tmp, "untraced", smoke)
    )
    spans = driver.Spans()
    span_s, spanned = _timed(lambda: driver.inline_repetition(
        workload, seed, tmp, "spans", smoke, spans=spans
    ))
    profiler = cProfile.Profile()
    profiled_s, profiled = _timed(lambda: driver.inline_repetition(
        workload, seed, tmp, "profiled", smoke, profiler=profiler
    ))
    for outcome in (untraced, spanned, profiled):
        ledger.shards(outcome)
    ledger.checks(driver.check_outcome(workload, seed, spanned, smoke))
    ledger.checks([
        ("serial_bytes_equal_pool_bytes", warm["sha256"] == untraced["sha256"]),
        ("inline_bytes_equal_user_path_bytes",
         spanned["sha256"] == profiled["sha256"] == untraced["sha256"]),
    ])

    # Imported here so that untraced processes do not pay for it in setup_s.
    import probes

    sim = driver.summarize(spanned["reports"], seed)
    metrics = probes.run_probes(tmp, smoke)
    for name in ("scenarios.spec_s", "scenarios.build_s", "sim.run_s",
                 "scenarios.report_s", "fleet.merge_s", "fleet.serialize_s",
                 "runs.store_s"):
        metrics[name] = spans.seconds(lambda row, name=name: row["name"] == name)
    shard_s = spans.seconds(lambda row: row["shard"] is not None)
    metrics["fleet.parallel_efficiency"] = shard_s / (workload.workers * untraced_s)
    layers, unattributed = attribute(profiler, sim["pkts_offered"])
    for layer, shares in layers.items():
        metrics[f"{layer}.self_frac"] = shares["self_frac"]
        metrics[f"{layer}.calls_per_pkt"] = shares["calls_per_pkt"]
    # Both sides run the same inline driver in this process, so the
    # ratio is the profiler's cost and not the pool's.
    metrics["trace.overhead_frac"] = profiled_s / span_s - 1
    metrics["trace.unattributed_frac"] = unattributed
    metrics.update(sim["per_layer"])
    for key in ("checkpoints_captured", "checkpoints_skipped"):
        metrics[f"controlplane.{key}"] = sum(fact[key] for fact in spanned["facts"])
    return {
        "metrics": metrics,
        "spans": spans.rows,
        # Row 0 is the whole repetition; its children are the phase spans.
        "span_wall_s": spans.seconds(lambda row: row["parent"] is None),
        "span_sum_s": spans.seconds(lambda row: row["parent"] == 0),
        "untraced_wall_s": untraced_s,
        "profiled_wall_s": profiled_s,
        "sha256": spanned["sha256"],
        "sim": sim,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="this process's share of the run's --seconds")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before the parent started us")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    tmp = tempfile.mkdtemp(dir=args.tmp)
    try:
        body = (traced_child if args.trace else timed_child)(
            workload, args, tmp, ledger
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    body.update({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "peak_rss_mb": _peak_rss_mb(),
        "host": dict(host_metadata(), nproc=len(os.sched_getaffinity(0))),
    })
    json.dump(body, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
