"""Fleet-scale parallel sweep engine (``python -m repro sweep``).

The paper's headline claims are fleet-level -- a region of Albatross
servers absorbing millions of tenants -- while a single simulator
process models one box.  This package closes that gap by sharding
*independent* runs (tenant-scaling axes, seed replications, parameter
grids) across forked children, one shard per child, and merging the
results with the exact-aggregation machinery single runs already use
(:meth:`LatencyHistogram.merge`, :class:`CounterSet`).

Layering:

* :mod:`.shard` -- the shard record, seed replication and the injective
  per-shard seed derivation (no two shards of a sweep ever share a seed).
* :mod:`.engine` -- the fork runner: order-preserving ``pool_map``,
  longest-first ``run_sweep`` and the byte-identical ``workers=1``
  inline path.
* :mod:`.sweeps` -- the named sweeps the CLI exposes (import it from
  its module: a caller with its own shards never loads the registry).
* :mod:`.report` -- merging and the :class:`SweepReport` artifact.
"""

from repro.fleet.engine import (
    ShardFailure,
    default_workers,
    pool_map,
    run_shard,
    run_sweep,
    sweep_to_json,
    write_sweep_report,
)
from repro.fleet.report import SCHEMA_VERSION, SweepReport, merge_run_reports
from repro.fleet.shard import (
    MAX_SHARDS,
    ShardSpec,
    replicate,
    shard_seed,
)

__all__ = [
    "MAX_SHARDS",
    "SCHEMA_VERSION",
    "ShardFailure",
    "ShardSpec",
    "SweepReport",
    "default_workers",
    "merge_run_reports",
    "pool_map",
    "replicate",
    "run_shard",
    "run_sweep",
    "shard_seed",
    "sweep_to_json",
    "write_sweep_report",
]
