"""Fleet-scale parallel sweep engine (``python -m repro sweep``).

The paper's headline claims are fleet-level -- a region of Albatross
servers absorbing millions of tenants -- while a single simulator
process models one box.  This package closes that gap by sharding
*independent* runs (tenant-scaling axes, seed replications, parameter
grids) across a ``multiprocessing`` pool and merging the results with
the exact-aggregation machinery single runs already use
(:meth:`LatencyHistogram.merge`, :class:`CounterSet`).

Layering:

* :mod:`.shard` -- grid expansion and the injective per-shard seed
  derivation (no two shards of a sweep ever share a seed).
* :mod:`.engine` -- the worker pool: order-preserving ``pool_map``,
  longest-first ``run_sweep`` and the byte-identical ``workers=1``
  fallback.
* :mod:`.sweeps` -- the named sweeps the CLI exposes.
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
    expand_grid,
    replicate,
    shard_seed,
)
from repro.fleet.sweeps import SWEEP_FACTORIES, build_sweep, with_timeseries

__all__ = [
    "MAX_SHARDS",
    "SCHEMA_VERSION",
    "SWEEP_FACTORIES",
    "ShardFailure",
    "ShardSpec",
    "SweepReport",
    "build_sweep",
    "default_workers",
    "expand_grid",
    "merge_run_reports",
    "pool_map",
    "replicate",
    "run_shard",
    "run_sweep",
    "shard_seed",
    "sweep_to_json",
    "with_timeseries",
    "write_sweep_report",
]
