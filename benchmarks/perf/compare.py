#!/usr/bin/env python3
"""Compare two ``run.py --out`` files: ``compare.py A.json B.json``.

One row per workload x end-to-end metric with both medians, the wider
side's process-to-process spread and the bound from ``BENCHMARK.json``:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` it is not, but a side's spread is wider than the bound,
                 so "no change" cannot be told from a change that size;
* ``ok``         otherwise.

Simulated results (the report sha256, every sim metric and every
deterministic count) must match exactly; a difference is ``worse``.
Exit code 1 if any row is ``worse``, 2 if the files cannot be compared.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Units of the metrics that are functions of (spec, seed) alone.
EXACT_UNITS = ("count", "1/pkt", "KiB", "sim_us", "sim_ratio")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _relative_spread(spread):
    """Min to max of the three processes, over their median."""
    return (spread["max"] - spread["min"]) / spread["median"]


def _host_rows(name, a, b, declared):
    """Rows for the host metrics of one workload's untraced runs."""
    for metric in declared["end_to_end"]:
        key = metric["name"]
        if key in a["spreads"]:
            sides = [side["spreads"][key] for side in (a, b)]
            medians = [side["median"] for side in sides]
            spread = max(_relative_spread(side) for side in sides)
        elif key == "pkts_per_s":
            # pkts_offered / wall_s: the same samples, the same spread.
            medians = [side["metrics"][key] for side in (a, b)]
            spread = max(
                _relative_spread(side["spreads"]["wall_s"]) for side in (a, b)
            )
        else:
            continue
        change = (medians[1] - medians[0]) / medians[0]
        if metric["better"] == "higher":
            change = -change
        if change > metric["bound"]:
            verdict = "worse"
        elif spread > metric["bound"]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        yield (name, key, f"{medians[0]:.5g}", f"{medians[1]:.5g}",
               f"{change:+.1%}", f"{spread:.1%}", f"{metric['bound']:.0%}", verdict)


def _exact_rows(name, a, b, declared):
    """Rows for everything that must repeat exactly for a seed."""
    pairs = [("sha256", a["untraced"]["sha256"], b["untraced"]["sha256"])]
    sims = [
        dict(side["untraced"]["sim"], **side["untraced"]["sim"]["per_layer"])
        for side in (a, b)
    ]
    pairs += [
        (key, value, sims[1].get(key))
        for key, value in sims[0].items() if key != "per_layer"
    ]
    if "traced" in a and "traced" in b:
        pairs.append(("traced.sha256", a["traced"]["sha256"], b["traced"]["sha256"]))
        metrics_a, metrics_b = a["traced"]["metrics"], b["traced"]["metrics"]
        pairs += [
            (metric["name"], metrics_a[metric["name"]], metrics_b.get(metric["name"]))
            for metric in declared["per_layer"] if metric["unit"] in EXACT_UNITS
        ]
    for key, left, right in pairs:
        if left != right:
            yield (name, key, str(left)[:12], str(right)[:12], "differs", "-",
                   "exact", "worse")
    yield (name, f"{len(pairs)} exact values", "", "", "", "-", "exact",
           "worse" if any(left != right for _, left, right in pairs) else "ok")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = _load(sys.argv[1]), _load(sys.argv[2])
    for key in ("seed", "smoke", "seconds"):
        if a[key] != b[key]:
            print(f"cannot compare: {key} is {a[key]!r} in A and {b[key]!r} in B")
            sys.exit(2)
    declared = _load(os.path.join(ROOT, "BENCHMARK.json"))
    rows = [("workload", "metric", "A", "B", "change", "spread", "bound", "verdict")]
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"cannot compare: workload {name} is missing from B")
            sys.exit(2)
        rows += _host_rows(
            name, a["workloads"][name]["untraced"], b["workloads"][name]["untraced"],
            declared,
        )
        rows += _exact_rows(
            name, a["workloads"][name], b["workloads"][name], declared
        )
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print(f"commits: A {a['commit'][:12]}  B {b['commit'][:12]}; "
          "'change' is positive when B is worse")
    sys.exit(1 if any(row[-1] == "worse" for row in rows[1:]) else 0)


if __name__ == "__main__":
    main()
