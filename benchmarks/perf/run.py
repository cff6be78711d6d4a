#!/usr/bin/env python3
"""The repo benchmark: ``python3 benchmarks/perf/run.py`` (see README.md).

With ``--workload`` it measures one workload the way ``BENCHMARK.json``
declares and prints the result object as its last line; without, it
runs every workload untraced and traced and prints every metric.

Every number is *host* (what the simulator costs on this machine) or
*sim* (what the modelled gateway did).  Sim numbers repeat exactly for
a seed; host numbers carry the bound ``BENCHMARK.json`` gives them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Fresh processes per untraced run: each sets up from nothing, so every
#: end-to-end metric is a median of this many samples.
PROCESSES = 3


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _child(workload, seed, trace, seconds, smoke, corrupt, tmp):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [path for path in (os.environ.get("PYTHONPATH"),) if path]
    )
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--seconds", repr(seconds), "--tmp", tmp,
        "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _spread(values):
    """Median with the spread a reader needs to judge it."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _traced(workload, seed, smoke, corrupt, tmp):
    child = _child(workload, seed, 1, 0, smoke, corrupt, tmp)
    details = {key: value for key, value in child.items()
               if key not in ("metrics", "attempted", "failed", "peak_rss_mb")}
    return {"attempted": child["attempted"], "failed": child["failed"],
            "metrics": child["metrics"], "details": details}


def _untraced(workload, seed, seconds, smoke, corrupt, tmp):
    children = [
        _child(workload, seed, 0, seconds / PROCESSES, smoke, corrupt, tmp)
        for _ in range(1 if smoke else PROCESSES)
    ]
    first = children[0]
    failed = [name for child in children for name in child["failed"]]
    if any((child["sha256"], child["sim"]) != (first["sha256"], first["sim"])
           for child in children):
        failed.append("same_result_every_process")
    # Interference only ever adds time, so a process's fastest repetition
    # is its best estimate; the median is taken across the processes.
    spreads = {
        "wall_s": _spread([min(child["walls_s"]) for child in children]),
        "setup_s": _spread([child["setup_s"] for child in children]),
        "peak_rss_mb": _spread([child["peak_rss_mb"] for child in children]),
    }
    sim = first["sim"]
    metrics = {name: spread["median"] for name, spread in spreads.items()}
    metrics["pkts_per_s"] = sim["pkts_offered"] / metrics["wall_s"]
    metrics["sim_delivered_frac"] = sim["sim_delivered_frac"]
    return {
        "attempted": sum(child["attempted"] for child in children) + 1,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "spreads": spreads, "sha256": first["sha256"], "sim": sim,
            "host": first["host"],
            "walls_s": [child["walls_s"] for child in children],
        },
    }


def measure(workload, seed, seconds, trace, smoke=False, corrupt=False):
    """One run of one workload: attempted, failed, metrics and details."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        if trace:
            return _traced(workload, seed, smoke, corrupt, tmp)
        return _untraced(workload, seed, seconds, smoke, corrupt, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def result_object(result, declared, trace):
    """The one-line object the benchmark contract asks for."""
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if trace else "end_to_end"]
    }
    return {
        "correct": not result["failed"],
        "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _print_run(workload, result, declared, trace):
    print(f"== {workload} ({'traced' if trace else 'untraced'}) "
          f"sha256 {result['details']['sha256'][:16]}")
    spreads = result["details"].get("spreads", {})
    for name, entry in result_object(result, declared, trace)["metrics"].items():
        line = f"  {name:38s} {entry['value']:>16.6g} {entry['unit']}"
        if name in spreads:
            spread = spreads[name]
            line += f"   (min {spread['min']:.4g}, max {spread['max']:.4g}, n={spread['n']})"
        print(line)
    for name in result["failed"]:
        print(f"  FAILED {name}")


def _commit():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=True, text=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main():
    declared = _declared()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default: 0 with --workload, both without")
    parser.add_argument("--out", help="write every run's details here as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="same code at tiny constants (for test_contract.py)")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if os.environ.get("REPRO_SANITIZE"):
        sys.exit("refusing to benchmark with REPRO_SANITIZE set: "
                 "the sanitizer's checks are not the program's cost")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")

    selected = [args.workload] if args.workload else names
    if args.trace is not None:
        traces = [args.trace]
    else:
        traces = [0] if args.workload else [0, 1]
    document = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "commit": _commit(), "workloads": {},
    }
    failed = False
    last = None
    for workload in selected:
        for trace in traces:
            result = measure(
                workload, args.seed, args.seconds, trace, args.smoke, args.corrupt
            )
            _print_run(workload, result, declared, trace)
            failed = failed or bool(result["failed"])
            last = result_object(result, declared, trace)
            entry = document["workloads"].setdefault(workload, {})
            entry["traced" if trace else "untraced"] = dict(
                result["details"], metrics=result["metrics"],
                attempted=result["attempted"], failed=result["failed"],
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    if args.workload:
        print(json.dumps(last))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
