"""Latency histogram: a log-linear sketch in the style of HdrHistogram.

The paper reads latency as bucketed distributions (Fig. 11's < 30 us and
30--100 us shares, Tab. 4's per-stage numbers), so the histogram keeps
bucket counts and no raw samples:

* **Buckets.**  A value keeps its top 8 significant bits: the exponent
  comes from ``int.bit_length`` and the next 7 mantissa bits follow.  A
  bucket is named by its lower edge, the value with every lower bit
  cleared, so a value below 2**8 is its own bucket and a bucket's width
  is under 2**-7 (0.8 %) of its lower edge.  The arithmetic is integer
  only: no ``math.log``, whose float rounding misbuckets values on an
  edge and differed across libm implementations.
* **Exact fields.**  ``count``, ``sum``, ``min`` and ``max`` are exact.
  :meth:`~LatencyHistogram.percentile` returns the highest value of the
  bucket holding the rank, clamped to ``max``, so it is within 2**-7
  above the exact nearest-rank sample; :meth:`~LatencyHistogram.
  fraction_below` is exact when the threshold is a bucket edge.
* **Merge** adds bucket counts element-wise: exact, associative and
  commutative, so any grouping of shards merges to the same bytes.
* **Difference** (:meth:`~LatencyHistogram.since`) subtracts an earlier
  snapshot, as HdrHistogram's ``subtract`` does.  Its own ``max`` is
  unknown, so a percentile read from it can sit higher in its bucket.
* **State** is plain ``STATE``: the four scalars and a
  :class:`~repro.controlplane.snapshot.Table` of the non-zero buckets.
  Its snapshot is also the report's ``latency`` wire form.
"""

import math

from repro.controlplane.snapshot import Stateful, Table

#: Mantissa bits a bucket keeps below a value's leading bit.
MANTISSA_BITS = 7
#: Significant bits a bucket keeps: the leading bit and the mantissa.
_KEPT_BITS = MANTISSA_BITS + 1
#: Values below this are each their own bucket.
_EXACT_BELOW = 1 << _KEPT_BITS


def bucket_edge(value):
    """Lower edge of ``value``'s bucket (``value`` itself below 2**8)."""
    if value < _EXACT_BELOW:
        return value
    shift = value.bit_length() - _KEPT_BITS
    return value >> shift << shift


def bucket_top(edge):
    """Highest value in the bucket whose lower edge is ``edge``."""
    if edge < _EXACT_BELOW:
        return edge
    return edge + (1 << (edge.bit_length() - _KEPT_BITS)) - 1


class LatencyHistogram(Stateful):
    """Records non-negative integer nanosecond latencies."""

    __slots__ = ("count", "sum_ns", "min_ns", "max_ns", "buckets")
    STATE = ("count", ("sum", "sum_ns"), ("min", "min_ns"), ("max", "max_ns"), "buckets")

    def __init__(self, seed=None):
        # ``seed`` is accepted and ignored: the benchmark probes still
        # pass one (ROADMAP 3(c)); nothing here draws randomness.
        self.count = 0
        self.sum_ns = 0
        self.min_ns = None
        self.max_ns = None
        self.buckets = Table()

    def record(self, latency_ns):
        # Inline of bucket_edge: the per-packet path pays no call.
        if latency_ns < _EXACT_BELOW:
            if latency_ns < 0:
                raise ValueError(f"negative latency: {latency_ns}")
            edge = latency_ns
        else:
            shift = latency_ns.bit_length() - _KEPT_BITS
            edge = latency_ns >> shift << shift
        try:
            self.buckets[edge] += 1
        except KeyError:
            self.buckets[edge] = 1
        try:
            if latency_ns < self.min_ns:
                self.min_ns = latency_ns
            elif latency_ns > self.max_ns:
                self.max_ns = latency_ns
        except TypeError:  # the first record: min and max are None
            self.min_ns = self.max_ns = latency_ns
        self.count += 1
        self.sum_ns += latency_ns

    @property
    def mean_ns(self):
        return self.sum_ns / self.count if self.count else 0.0

    def percentile(self, fraction):
        """Latency at ``fraction`` (0..1], e.g. 0.99 for P99: the top of
        the nearest-rank sample's bucket, clamped to ``max``."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction out of range: {fraction}")
        if not self.count:
            return 0
        rank = max(1, math.ceil(fraction * self.count))
        seen = 0
        for edge in sorted(self.buckets):
            seen += self.buckets[edge]
            if seen >= rank:
                return min(bucket_top(edge), self.max_ns)

    def fraction_below(self, threshold_ns):
        """Fraction of recorded latencies below ``bucket_edge(threshold_ns)``:
        exact when ``threshold_ns`` is a bucket edge, and it moves a
        threshold down by less than 2**-7 of itself otherwise."""
        if not self.count:
            return 0.0
        edge = bucket_edge(threshold_ns)
        below = sum(count for low, count in self.buckets.items() if low < edge)
        return below / self.count

    def merge(self, other):
        """Fold another histogram into this one (element-wise addition)."""
        if other is self:
            raise ValueError("cannot merge a histogram into itself")
        if not other.count:
            return self
        if self.count:
            self.min_ns = min(self.min_ns, other.min_ns)
            self.max_ns = max(self.max_ns, other.max_ns)
        else:
            self.min_ns, self.max_ns = other.min_ns, other.max_ns
        self.count += other.count
        self.sum_ns += other.sum_ns
        buckets = self.buckets
        for edge, count in other.buckets.items():
            buckets[edge] = buckets.get(edge, 0) + count
        return self

    def since(self, earlier):
        """What was recorded since ``earlier``, a :meth:`checkpoint` of this
        sketch: exact buckets, ``count`` and ``sum``; ``min``/``max`` moved
        into the remaining buckets.  A non-prefix raises ``ValueError``."""
        buckets = dict(self.buckets)
        for edge, count in earlier["buckets"]:
            buckets[edge] = buckets.get(edge, 0) - count
        if earlier["count"] > self.count or min(buckets.values(), default=0) < 0:
            raise ValueError("not an earlier snapshot of this sketch")
        since = LatencyHistogram()
        since.buckets.update((edge, count) for edge, count in buckets.items() if count)
        since.count = self.count - earlier["count"]
        since.sum_ns = self.sum_ns - earlier["sum"]
        if since.buckets:
            since.min_ns = max(self.min_ns, min(since.buckets))
            since.max_ns = min(self.max_ns, bucket_top(max(since.buckets)))
        return since


def merge_histograms(snapshots):
    """Fold ``LatencyHistogram`` snapshots into a fresh histogram (no
    input is mutated)."""
    merged = LatencyHistogram()
    for snapshot in snapshots:
        shard = LatencyHistogram()
        shard.restore(snapshot)
        merged.merge(shard)
    return merged
