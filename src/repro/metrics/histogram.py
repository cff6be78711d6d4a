"""Latency histogram with log-spaced buckets and exact percentiles.

Production telemetry uses log buckets (the Fig. 11 distribution); tests
want exact percentiles.  This histogram does both: it keeps log-bucket
counts always and raw samples up to a cap (reservoir-style thinning past
the cap keeps percentiles approximately exact without unbounded memory).

Hot-path and correctness notes:

* Bucket boundaries are computed with **integer comparisons**, never
  ``math.log``: float rounding misbuckets values that sit exactly on a
  boundary (``log(1000)/log(10)`` evaluates to ``2.999...``), and the
  result differed across libm implementations.  Boundaries are derived
  from an exact :class:`fractions.Fraction` of ``bucket_factor``, so the
  bucket edges are identical on every platform.  For the default
  ``bucket_factor=2.0``, bucketing is a single ``int.bit_length`` call.
* Bucket counts live in a preallocated list indexed by bucket number
  (grown on demand), not a dict.
* **Fold on read.**  Below the reservoir cap every sample is retained
  anyway, so ``record`` only checks the sign and appends.  ``count``,
  ``sum``, ``min``, ``max`` and the bucket counts cover the samples
  before ``_folded``; the first reader (every public accessor, and
  ``merge``/``to_dict``/``checkpoint``) folds the tail in record order,
  by index.  At the cap the tail is folded once and ``record`` goes
  eager again: aggregates per record plus Vitter's algorithm R, with the
  same draws as ever.
* ``percentile``/``fraction_below`` reuse a sorted view of the reservoir
  cached per ``count`` (every record bumps the folded ``count``, so a
  stale cache is impossible), instead of re-sorting per query.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
import math

from repro.sim.rng import derived_stream, rng_state, set_rng_state


class LatencyHistogram:
    """Records nanosecond latencies.

    Parameters:
        bucket_factor: ratio between adjacent log-bucket boundaries.
        max_samples: cap on retained raw samples; beyond it, reservoir
            sampling keeps a uniform subset.
    """

    __slots__ = (
        "bucket_factor",
        "max_samples",
        "_bucket_counts",
        "_bounds",
        "_bound_fraction",
        "_power_of_two",
        "_samples",
        "_folded",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_rng",
        "_sorted_cache",
        "_sorted_cache_count",
    )

    def __init__(self, bucket_factor=2.0, max_samples=200_000, seed=1):
        if bucket_factor <= 1.0:
            raise ValueError("bucket_factor must exceed 1.0")
        self.bucket_factor = bucket_factor
        self.max_samples = max_samples
        # Exact binary value of the factor: boundary k is ceil(factor**k)
        # computed in integer arithmetic, deterministic across platforms.
        self._bound_fraction = Fraction(bucket_factor)
        self._power_of_two = bucket_factor == 2.0
        # _bounds[k] = smallest integer in bucket k+1; bucket b >= 1 holds
        # x with _bounds[b-1] <= x < _bounds[b].  Bucket 0 holds x == 0.
        self._bounds = [1]
        self._bucket_counts = [0, 0]
        self._samples = []
        self._folded = 0    # samples[:_folded] are in the aggregates
        self._count = 0
        self._sum = 0
        self._min = None
        self._max = None
        self._rng = derived_stream("metrics.histogram.reservoir", seed=seed)
        self._sorted_cache = []
        self._sorted_cache_count = 0

    def record(self, latency_ns):
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        samples = self._samples
        if len(samples) < self.max_samples:
            samples.append(latency_ns)  # aggregated by the next reader
            return
        self._fold()
        self._aggregate((latency_ns,), 0, 1)
        # Vitter's algorithm R.
        index = self._rng.randrange(self._count)
        if index < self.max_samples:
            samples[index] = latency_ns

    def _fold(self):
        """Aggregate the samples recorded since the last read."""
        end = len(self._samples)
        if self._folded != end:
            self._aggregate(self._samples, self._folded, end)
            self._folded = end

    def _aggregate(self, values, start, end):
        """Count ``values[start:end]`` into ``count``/``sum``/``min``/``max``
        and the buckets, in order and by index (no slice copy)."""
        total, low, high = self._sum, self._min, self._max
        counts = self._bucket_counts
        bounds = self._bounds
        power_of_two = self._power_of_two
        for index in range(start, end):
            value = values[index]
            total += value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
            # Inline of _bucket_of.
            if value == 0:
                bucket = 0
            elif power_of_two:
                # bucket b >= 1 holds [2**(b-1), 2**b); exactly bit_length.
                bucket = value.bit_length()
            else:
                while bounds[-1] <= value:
                    self._extend_bounds()
                bucket = bisect_right(bounds, value)
            if bucket >= len(counts):
                counts.extend([0] * (bucket + 1 - len(counts)))
            counts[bucket] += 1
        self._count += end - start
        self._sum, self._min, self._max = total, low, high

    def reset(self):
        """Drop all recorded data, keeping the bucket configuration.

        The reservoir rng keeps its position (a reset is not a rebuild:
        windowed consumers like the telemetry recorder reset the same
        histogram every window, and reusing the stream keeps the sequence
        of draws a pure function of the recorded data).
        """
        self._bucket_counts = [0, 0]
        self._samples = []
        self._folded = 0
        self._count = 0
        self._sum = 0
        self._min = None
        self._max = None
        self._sorted_cache = []
        self._sorted_cache_count = 0

    def _extend_bounds(self):
        """Append the next integer bucket boundary (exact ceil(factor**k))."""
        power = self._bound_fraction ** len(self._bounds)
        boundary = -(-power.numerator // power.denominator)  # ceil
        # Factors close to 1 can repeat an integer boundary; buckets must
        # stay non-degenerate, so each boundary strictly increases.
        self._bounds.append(max(boundary, self._bounds[-1] + 1))

    def _bucket_of(self, latency_ns):
        """Bucket index for ``latency_ns`` (integer-exact at boundaries)."""
        if latency_ns == 0:
            return 0
        if self._power_of_two:
            return latency_ns.bit_length()
        while self._bounds[-1] <= latency_ns:
            self._extend_bounds()
        return bisect_right(self._bounds, latency_ns)

    @property
    def count(self):
        self._fold()
        return self._count

    @property
    def mean_ns(self):
        self._fold()
        return self._sum / self._count if self._count else 0.0

    @property
    def min_ns(self):
        self._fold()
        return self._min

    @property
    def max_ns(self):
        self._fold()
        return self._max

    def _sorted_samples(self):
        """Sorted view of the reservoir, cached until the next record.

        The folded ``_count`` grows with every record (and merge), so
        comparing the cached count is a complete invalidation check -- the
        record path pays nothing for the cache.
        """
        self._fold()
        if self._sorted_cache_count != self._count:
            self._sorted_cache = sorted(self._samples)
            self._sorted_cache_count = self._count
        return self._sorted_cache

    def percentile(self, fraction):
        """Latency at ``fraction`` (0..1], e.g. 0.99 for P99."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction out of range: {fraction}")
        if not self._samples:
            return 0
        ordered = self._sorted_samples()
        index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[index]

    def fraction_below(self, threshold_ns):
        """Fraction of recorded latencies strictly below ``threshold_ns``.

        Computed over the retained reservoir: exact while ``count`` is at
        most ``max_samples``, reservoir-approximate beyond that (a uniform
        subsample of the full stream, like ``percentile``).
        """
        if not self._samples:
            return 0.0
        ordered = self._sorted_samples()
        return bisect_left(ordered, threshold_ns) / len(ordered)

    def bucket_counts(self):
        """{bucket upper bound ns: count} sorted ascending (Fig. 11 data).

        Edges come from the exact integer boundary table, so they are
        identical across platforms (``int(factor**bucket)`` was not, for
        large powers).
        """
        self._fold()
        result = {}
        for bucket, count in enumerate(self._bucket_counts):
            if not count:
                continue
            while bucket >= len(self._bounds):
                self._extend_bounds()
            upper = 0 if bucket == 0 else self._bounds[bucket]
            result[upper] = count
        return result

    def to_dict(self):
        """Serializable state (the fleet's cross-process wire format).

        Carries the exact aggregates plus the retained reservoir, so
        ``from_dict(h.to_dict())`` merges identically to merging ``h``
        itself.  The reservoir rng state is *not* carried: the merging
        side owns reservoir thinning, exactly as in :meth:`merge`.
        """
        self._fold()
        return {
            "bucket_factor": self.bucket_factor,
            "max_samples": self.max_samples,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "bucket_counts": list(self._bucket_counts),
            "samples": list(self._samples),
        }

    def checkpoint(self):
        """Migration snapshot: :meth:`to_dict` **plus** the reservoir rng.

        Unlike the fleet wire format (where the merging side owns
        thinning), a live-migration restore must continue reservoir
        sampling exactly where the frozen histogram stopped -- so the rng
        position rides along.
        """
        snapshot = self.to_dict()
        snapshot["rng"] = rng_state(self._rng)
        return snapshot

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint` in place, rng position included."""
        self.bucket_factor = snapshot["bucket_factor"]
        self.max_samples = snapshot["max_samples"]
        self._bound_fraction = Fraction(self.bucket_factor)
        self._power_of_two = self.bucket_factor == 2.0
        self._bounds = [1]
        self._count = snapshot["count"]
        self._sum = snapshot["sum"]
        self._min = snapshot["min"]
        self._max = snapshot["max"]
        self._bucket_counts = list(snapshot["bucket_counts"])
        if len(self._bucket_counts) < 2:
            self._bucket_counts.extend([0] * (2 - len(self._bucket_counts)))
        self._samples = list(snapshot["samples"])
        self._folded = len(self._samples)
        set_rng_state(self._rng, snapshot["rng"])
        self._sorted_cache = []
        self._sorted_cache_count = -1

    @classmethod
    def from_dict(cls, data, seed=1):
        """Rebuild a histogram serialized by :meth:`to_dict`."""
        histogram = cls(
            bucket_factor=data["bucket_factor"],
            max_samples=data["max_samples"],
            seed=seed,
        )
        histogram._count = data["count"]
        histogram._sum = data["sum"]
        histogram._min = data["min"]
        histogram._max = data["max"]
        histogram._bucket_counts = list(data["bucket_counts"])
        if len(histogram._bucket_counts) < 2:
            histogram._bucket_counts.extend(
                [0] * (2 - len(histogram._bucket_counts))
            )
        histogram._samples = list(data["samples"])
        histogram._folded = len(histogram._samples)
        return histogram

    def merge(self, other):
        """Fold another histogram into this one.

        Aggregates (``count``, ``sum``, ``min``, ``max`` and the bucket
        counts) are merged **directly**, so merging a thinned histogram is
        exact: re-recording only ``other``'s retained reservoir samples
        would undercount everything past its ``max_samples`` cap.  Only
        the reservoir folds sample-by-sample (it stays an approximation by
        construction).  Requires matching ``bucket_factor``.
        """
        if other is self:
            raise ValueError("cannot merge a histogram into itself")
        if other.bucket_factor != self.bucket_factor:
            raise ValueError(
                f"bucket_factor mismatch: {self.bucket_factor} vs "
                f"{other.bucket_factor}"
            )
        self._fold()
        other._fold()
        if other._count == 0:
            return self
        count_before = self._count
        self._count += other._count
        self._sum += other._sum
        if self._min is None or (other._min is not None and other._min < self._min):
            self._min = other._min
        if self._max is None or (other._max is not None and other._max > self._max):
            self._max = other._max
        counts = self._bucket_counts
        if len(other._bucket_counts) > len(counts):
            counts.extend([0] * (len(other._bucket_counts) - len(counts)))
        for bucket, count in enumerate(other._bucket_counts):
            if count:
                counts[bucket] += count
        # Reservoir fold under Vitter's algorithm R: the acceptance
        # probability for the i-th folded sample is max_samples over the
        # *running* stream position, not the final post-merge count --
        # drawing against the final count under-accepts early samples and
        # biases the merged reservoir toward the receiver's.  When
        # ``other`` was itself thinned the retained samples stand in for
        # its full stream (the documented approximation).
        samples = self._samples
        stream = count_before
        for sample in other._samples:
            stream += 1
            if len(samples) < self.max_samples:
                samples.append(sample)
            else:
                index = self._rng.randrange(stream)
                if index < self.max_samples:
                    samples[index] = sample
        # The appended samples are in the aggregates already, merged above.
        self._folded = len(samples)
        return self
