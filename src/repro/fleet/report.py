"""Fleet-level merging and the ``SweepReport`` artifact.

Per-shard run reports (see :meth:`repro.scenarios.build.RunHandle.report`)
are folded into one fleet view by the rows of
:data:`repro.scenarios.sections.SECTIONS`: counters sum, latency merges
through :meth:`LatencyHistogram.merge` (exact: bucket counts add).
Merging is strictly shard-order: the engine hands reports over in
shard-index order however the children were dispatched, so the merged
artifact is byte-identical under any worker count.

``SweepReport`` follows the repo-wide tabular convention: ``to_dict()``
for the JSON artifact and ``rows()`` (list of flat dicts) for tooling
and :func:`repro.table.format_table`.
"""

from repro.runs.query import shard_row
# summarize_histogram stays importable from here, its historical home.
from repro.scenarios.sections import SECTIONS, summarize_histogram
from repro.sim.units import US

SCHEMA_VERSION = 1


def merge_run_reports(run_reports, seed=None):
    """Fold per-shard run reports into the fleet-level aggregate: each
    :data:`~repro.scenarios.sections.SECTIONS` row folds the shards that
    carry its keys.  ``seed`` is accepted and ignored: the benchmark
    driver still passes one (ROADMAP 3(c))."""
    shards = list(enumerate(run_reports))
    merged = {}
    for row in SECTIONS:
        merged.update(row.merge(shards))
    return merged


class SweepReport:
    """The merged result of a sweep, with the common tabular shape."""

    def __init__(self, name, seed, shard_results, merged):
        self.name = name
        self.seed = seed
        self.shard_results = list(shard_results)
        self.merged = merged

    def rows(self):
        """One flat dict per shard (axes become columns)."""
        return [shard_row(result) for result in self.shard_results]

    def to_dict(self):
        """The JSON artifact: shard summaries + the fleet aggregate.

        Deliberately excludes worker count, wall time and host facts:
        everything in the artifact is a function of (spec, seed) alone,
        so ``--workers 1`` and ``--workers N`` write identical bytes.
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
        from repro.table import format_table

        merged = self.merged
        latency = merged["latency"]
        lines = [
            f"sweep: {self.name} (seed {self.seed}, "
            f"{merged['shards']} shard(s))",
            format_table(self.rows()),
            f"  fleet: {merged['packets']} packets, {merged['events']} events",
        ]
        # "fleet" counts host deliveries; the DPU fast path delivers the rest.
        tiers = merged.get("tiers")
        if tiers is not None:
            host = tiers["host"]["packets"]
            fast = tiers.get("dpu", {}).get("packets", 0)
            share = 100 * fast / (host + fast) if host + fast else 0.0
            lines.append(f"  tiers: host {host}, dpu fast path {fast} ({share:.1f} %)")
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
