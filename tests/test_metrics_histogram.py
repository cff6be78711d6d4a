"""Histogram bugfix tests: exact bucket boundaries, merge aggregation,
and the cached percentile view.

Companions to the basic coverage in ``test_workloads_metrics.py``; these
pin the fixed behaviours: boundary values must never misbucket (the old
``math.log`` path put 1000 in the wrong factor-10 bucket), ``merge`` must
aggregate counters directly instead of replaying the lossy reservoir,
and the sorted-sample cache must invalidate on every mutation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import LatencyHistogram


def _bucket_bounds(histogram, bucket):
    """(inclusive lower, exclusive upper) integer edges of ``bucket``."""
    assert bucket >= 1
    while bucket >= len(histogram._bounds):
        histogram._extend_bounds()
    return histogram._bounds[bucket - 1], histogram._bounds[bucket]


class TestBucketBoundaries:
    def test_zero_gets_its_own_bucket(self):
        assert LatencyHistogram()._bucket_of(0) == 0

    def test_power_of_two_boundaries(self):
        histogram = LatencyHistogram()
        # Bucket b >= 1 holds [2**(b-1), 2**b).
        assert histogram._bucket_of(1) == 1
        assert histogram._bucket_of(2) == 2
        assert histogram._bucket_of(1023) == 10
        assert histogram._bucket_of(1024) == 11
        assert histogram._bucket_of(2**40) == 41

    def test_factor_ten_boundaries_exact(self):
        histogram = LatencyHistogram(bucket_factor=10.0)
        # log10(1000) evaluates to 2.9999... in floats; the integer
        # boundary table must still put 1000 above the 10**3 edge.
        assert histogram._bucket_of(999) == 3
        assert histogram._bucket_of(1000) == 4
        assert histogram._bucket_of(10**15 - 1) == 15
        assert histogram._bucket_of(10**15) == 16

    def test_bucket_upper_edges_are_exact_powers(self):
        histogram = LatencyHistogram(bucket_factor=10.0)
        histogram.record(1000)
        histogram.record(5)
        assert histogram.bucket_counts() == {10: 1, 10_000: 1}

    def test_near_one_factor_stays_non_degenerate(self):
        # ceil(1.01**k) is 2 for a long run of k; the boundary table must
        # still grow strictly so adjacent buckets never collapse.
        histogram = LatencyHistogram(bucket_factor=1.01)
        for value in (1, 2, 3, 10, 100):
            histogram.record(value)
        histogram._extend_bounds()
        bounds = histogram._bounds
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert {histogram._bucket_of(v) for v in (1, 2, 3)} == {1, 2, 3}

    def test_factor_at_or_below_one_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bucket_factor=1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.integers(min_value=1, max_value=10**18),
        factor=st.sampled_from([2.0, 10.0, 1.5, 4.0]),
    )
    def test_property_value_lies_within_its_bucket(self, value, factor):
        histogram = LatencyHistogram(bucket_factor=factor)
        bucket = histogram._bucket_of(value)
        assert bucket >= 1
        lower, upper = _bucket_bounds(histogram, bucket)
        assert lower <= value < upper


class TestMerge:
    def test_merge_thinned_source_keeps_exact_aggregates(self):
        merged = LatencyHistogram(max_samples=50, seed=1)
        source = LatencyHistogram(max_samples=50, seed=2)
        for value in range(1000):
            source.record(value)
        merged.record(5000)
        merged.merge(source)
        # Replaying source's 50 retained samples would report count 51;
        # direct aggregation keeps the full stream's totals.
        assert merged.count == 1001
        assert merged.min_ns == 0
        assert merged.max_ns == 5000
        assert merged.mean_ns == pytest.approx((sum(range(1000)) + 5000) / 1001)
        assert sum(merged.bucket_counts().values()) == 1001
        assert len(merged._samples) <= merged.max_samples

    def test_merge_reservoir_is_unbiased(self):
        # Regression for the reservoir-merge bias: folded samples used to
        # draw randrange against the *final post-merge* count, so every
        # folded sample was accepted with the same (too low) probability
        # instead of algorithm R's max_samples/stream at its own stream
        # position.  Merging 100 "ones" into a full reservoir of 100
        # "zeros" must leave each of the 200 stream elements equally
        # likely retained -- about half zeros.  Under the bug the
        # acceptance probability was a flat 0.5 and the expected zero
        # fraction was e**-0.5 ~ 0.61, well outside the band below.
        zero_fraction = 0.0
        trials = 200
        for seed in range(trials):
            merged = LatencyHistogram(max_samples=100, seed=seed)
            for _ in range(100):
                merged.record(0)
            source = LatencyHistogram(max_samples=100, seed=seed + trials)
            for _ in range(100):
                source.record(1)
            merged.merge(source)
            zero_fraction += merged.fraction_below(1)
        zero_fraction /= trials
        assert 0.46 < zero_fraction < 0.54

    def test_merge_reservoir_stream_resumes_after_merge(self):
        # The running stream count must leave later record() calls with
        # the correct acceptance probability too: aggregates stay exact.
        merged = LatencyHistogram(max_samples=10, seed=3)
        for value in range(10):
            merged.record(value)
        source = LatencyHistogram(max_samples=10, seed=4)
        for value in range(25):
            source.record(value)
        merged.merge(source)
        merged.record(99)
        assert merged.count == 36
        assert len(merged._samples) == 10

    def test_merge_into_empty(self):
        merged = LatencyHistogram()
        source = LatencyHistogram()
        source.record(42)
        merged.merge(source)
        assert (merged.count, merged.min_ns, merged.max_ns) == (1, 42, 42)

    def test_merge_empty_source_is_noop(self):
        merged = LatencyHistogram()
        merged.record(7)
        assert merged.merge(LatencyHistogram()) is merged
        assert merged.count == 1

    def test_merge_does_not_mutate_source(self):
        merged = LatencyHistogram()
        source = LatencyHistogram()
        for value in (3, 7, 11):
            source.record(value)
        before = source.to_dict()
        merged.merge(source)
        assert source.to_dict() == before

    def test_report_merge_histograms_does_not_mutate_inputs(self):
        # The report folds merge into a FRESH histogram: an input may be a
        # caller-held pod histogram's dict (regression: the shard-row fold
        # used to merge the rest into its first input in place).
        from repro.scenarios.sections import merge_histograms

        first = LatencyHistogram()
        second = LatencyHistogram()
        first.record(10)
        second.record(20)
        before_first = first.to_dict()
        before_second = second.to_dict()
        merged = merge_histograms([before_first, before_second], seed=1)
        assert merged.count == 2
        assert first.to_dict() == before_first
        assert second.to_dict() == before_second

    def test_merge_self_rejected(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError, match="itself"):
            histogram.merge(histogram)

    def test_merge_factor_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bucket_factor"):
            LatencyHistogram().merge(LatencyHistogram(bucket_factor=10.0))

    @settings(max_examples=100, deadline=None)
    @given(
        left=st.lists(st.integers(min_value=0, max_value=10**9), max_size=60),
        right=st.lists(st.integers(min_value=0, max_value=10**9), max_size=60),
    )
    def test_property_merge_equals_concatenated_recording(self, left, right):
        first = LatencyHistogram()
        second = LatencyHistogram()
        for value in left:
            first.record(value)
        for value in right:
            second.record(value)
        first.merge(second)

        combined = LatencyHistogram()
        for value in left + right:
            combined.record(value)

        assert first.count == combined.count
        assert first.mean_ns == pytest.approx(combined.mean_ns)
        assert first.min_ns == combined.min_ns
        assert first.max_ns == combined.max_ns
        assert first.bucket_counts() == combined.bucket_counts()
        # Below the reservoir cap nothing thins, so percentiles are exact
        # too (samples arrive in a different order, but sorted views match).
        if combined.count:
            for fraction in (0.25, 0.5, 0.99, 1.0):
                assert first.percentile(fraction) == combined.percentile(fraction)
            assert first.fraction_below(10**6) == combined.fraction_below(10**6)


class TestFoldOnRead:
    """``record`` appends below the cap; readers fold.  When a read happens
    must not change any state a snapshot or report can show."""

    READERS = (
        lambda h: h.count, lambda h: h.mean_ns, lambda h: h.min_ns,
        lambda h: h.max_ns, lambda h: h.percentile(0.5), lambda h: h.bucket_counts(),
        lambda h: h.to_dict(), lambda h: h.checkpoint(),
        lambda h: h.merge(LatencyHistogram(h.bucket_factor, h.max_samples)),
    )

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=10**7), max_size=120),
        reads=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 8)), max_size=12),
        factor=st.sampled_from([2.0, 10.0]),
    )
    def test_reads_anywhere_leave_the_same_snapshot(self, values, reads, factor):
        """Across the reservoir cap (40 samples), folding at arbitrary reads
        ends where folding only at the end does: aggregates, buckets, the
        reservoir and the reservoir rng position."""
        lazy = LatencyHistogram(bucket_factor=factor, max_samples=40)
        read_often = LatencyHistogram(bucket_factor=factor, max_samples=40)
        read_at = {}
        for index, reader in reads:
            read_at.setdefault(index, []).append(self.READERS[reader])
        for index, value in enumerate(values):
            for reader in read_at.get(index, ()):
                reader(read_often)
            lazy.record(value)
            read_often.record(value)
        assert read_often.checkpoint() == lazy.checkpoint()
        assert lazy.count == len(values)
        if values:
            assert (lazy.min_ns, lazy.max_ns) == (min(values), max(values))
            assert lazy.mean_ns == sum(values) / len(values)

    def test_restore_and_from_dict_do_not_fold_their_samples_again(self):
        histogram = LatencyHistogram()
        for value in (5, 7, 9):
            histogram.record(value)
        restored = LatencyHistogram()
        restored.restore(histogram.checkpoint())
        wired = LatencyHistogram.from_dict(histogram.to_dict())
        for copy in (restored, wired):
            copy.record(11)
            assert (copy.count, copy.mean_ns, copy.max_ns) == (4, 8.0, 11)


class TestSortedCache:
    def test_record_invalidates_cache(self):
        histogram = LatencyHistogram()
        for value in range(100):
            histogram.record(value)
        assert histogram.percentile(1.0) == 99
        histogram.record(10_000)
        assert histogram.percentile(1.0) == 10_000
        assert histogram.fraction_below(10_000) == pytest.approx(100 / 101)

    def test_merge_invalidates_cache(self):
        histogram = LatencyHistogram()
        histogram.record(1)
        assert histogram.percentile(1.0) == 1
        other = LatencyHistogram()
        other.record(500)
        histogram.merge(other)
        assert histogram.percentile(1.0) == 500

    def test_repeated_queries_reuse_cache(self):
        histogram = LatencyHistogram()
        for value in (30, 10, 20):
            histogram.record(value)
        first_view = histogram._sorted_samples()
        assert first_view == [10, 20, 30]
        assert histogram._sorted_samples() is first_view

    def test_fraction_below_exact_under_cap(self):
        histogram = LatencyHistogram()
        for value in range(10):
            histogram.record(value * 1000)
        assert histogram.fraction_below(0) == 0.0
        assert histogram.fraction_below(1) == pytest.approx(0.1)
        assert histogram.fraction_below(9001) == 1.0


class TestQueries:
    @pytest.mark.parametrize("fraction", [0, -0.5, 1.01, 2])
    def test_percentile_fraction_out_of_range(self, fraction):
        histogram = LatencyHistogram()
        histogram.record(5)
        with pytest.raises(ValueError, match="out of range"):
            histogram.percentile(fraction)

    @pytest.mark.parametrize(
        "fraction,value", [(0.001, 1), (0.01, 1), (0.25, 25), (0.999, 100)]
    )
    def test_percentile_is_nearest_rank(self, fraction, value):
        histogram = LatencyHistogram()
        for sample in range(100, 0, -1):
            histogram.record(sample)
        assert histogram.percentile(fraction) == value

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0
        assert histogram.fraction_below(10) == 0.0
        assert histogram.mean_ns == 0.0
        assert (histogram.min_ns, histogram.max_ns, histogram.count) == (None, None, 0)
        assert histogram.bucket_counts() == {}

    def test_reset_keeps_configuration(self):
        histogram = LatencyHistogram(bucket_factor=10.0, max_samples=8)
        for value in (0, 5, 50, 500):
            histogram.record(value)
        histogram.reset()
        assert histogram.count == 0 and histogram.bucket_counts() == {}
        histogram.record(50)
        assert histogram.bucket_counts() == {100: 1}
        assert histogram.percentile(1.0) == 50

    def test_from_dict_of_an_empty_wire_record(self):
        # Older wire records may carry a bucket list shorter than the two
        # preallocated slots; the rebuilt histogram must still record zero.
        data = LatencyHistogram().to_dict()
        data["bucket_counts"] = []
        rebuilt = LatencyHistogram.from_dict(data)
        rebuilt.record(0)
        assert rebuilt.bucket_counts() == {0: 1}

    def test_checkpoint_restore_continues_the_reservoir(self):
        original = LatencyHistogram(max_samples=16, seed=3)
        for value in range(100):
            original.record(value)
        snapshot = original.checkpoint()
        copy = LatencyHistogram(max_samples=4, seed=99)
        copy.restore(snapshot)
        for value in range(100, 300):
            original.record(value)
            copy.record(value)
        assert copy.to_dict() == original.to_dict()

    def test_restore_pads_short_bucket_lists(self):
        snapshot = LatencyHistogram().checkpoint()
        snapshot["bucket_counts"] = [0]
        histogram = LatencyHistogram()
        histogram.restore(snapshot)
        histogram.record(1)
        assert histogram.bucket_counts() == {2: 1}
