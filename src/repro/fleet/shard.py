"""Shard construction and seed derivation.

A **shard** is one independent simulation run inside a sweep: a
:class:`~repro.scenarios.spec.ScenarioSpec` plus its position in the
sweep.  Shards never share state -- each worker builds a fresh simulator
from its spec -- so the only cross-shard discipline needed is *seeding*:

* Every shard's seed is derived from the sweep seed with
  :func:`shard_seed`, which is **injective in the shard index** (the
  proof is one line: for a fixed base, two indices below ``2**INDEX_BITS``
  that map to the same value would have to differ by a multiple of
  ``2**64``).  No two shards of a sweep can ever collide, for any sweep
  size -- a property the hypothesis suite pins down.
* Inside a shard, streams come from ``RngRegistry(shard_seed)``, i.e.
  from :func:`repro.sim.rng.derived_stream` -- the same (seed, name)
  discipline every other entry point uses, so a shard replayed alone
  under ``simulate`` sees bit-identical entropy.
"""

#: Knuth's 64-bit golden-ratio multiplier (2**64 / phi, odd), the same
#: mixing family ``repro.sim.rng.derived_stream`` uses at 32 bits.
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Upper bound on shard indices; far above any realistic grid, low
#: enough that injectivity of :func:`shard_seed` is immediate.
INDEX_BITS = 32
MAX_SHARDS = 1 << INDEX_BITS


def shard_seed(base_seed, index):
    """The seed shard ``index`` of a sweep seeded ``base_seed`` runs with.

    Injective in ``index`` for ``0 <= index < MAX_SHARDS`` at any fixed
    ``base_seed``: the golden-ratio term is constant across the grid and
    distinct indices stay distinct mod ``2**64``.
    """
    if not 0 <= index < MAX_SHARDS:
        raise ValueError(f"shard index out of range: {index}")
    return ((base_seed & _MASK64) * _GOLDEN64 + index) & _MASK64


class ShardSpec:
    """One grid point: index, axis values, and the derived scenario."""

    __slots__ = ("index", "axes", "spec")

    def __init__(self, index, axes, spec):
        self.index = index
        self.axes = dict(axes)
        self.spec = spec

    def to_dict(self):
        return {"index": self.index, "axes": self.axes, "spec": self.spec.to_dict()}

    def __repr__(self):
        return f"<ShardSpec {self.index}: {self.axes}>"


def replicate(base_spec, count, seed):
    """``count`` seed-replication shards of the same scenario."""
    shards = []
    for index in range(count):
        spec = base_spec.with_overrides(seed=shard_seed(seed, index))
        shards.append(ShardSpec(index, {"replica": index}, spec))
    return shards
