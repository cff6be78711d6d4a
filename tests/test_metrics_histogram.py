"""The log-linear latency sketch: bucket edges, read error, exact merge,
the difference against an earlier snapshot and the snapshot round trip.

Companions to the basic coverage in ``test_workloads_metrics.py``.  The
properties compare the sketch against the exact answer over the raw
samples, which each test keeps as its own list.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.snapshot import snapshot_bytes
from repro.metrics.histogram import (
    MANTISSA_BITS,
    LatencyHistogram,
    bucket_edge,
    bucket_top,
)
from repro.scenarios.sections import merge_histograms

#: The sketch's relative error bound.
ERROR = 2 ** -MANTISSA_BITS

latencies = st.lists(st.integers(min_value=0, max_value=10**12), max_size=80)


def _filled(values):
    histogram = LatencyHistogram()
    for value in values:
        histogram.record(value)
    return histogram


def _exact_percentile(values, fraction):
    """Nearest rank over the sorted samples."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


class TestBuckets:
    def test_values_below_256_are_their_own_bucket(self):
        for value in range(256):
            assert bucket_edge(value) == bucket_top(value) == value

    def test_edges_keep_the_top_eight_bits(self):
        assert bucket_edge(256) == 256 and bucket_top(256) == 257
        assert bucket_edge(1000) == 1000    # 0b1111101000: exact in 8 bits
        assert bucket_edge(1001) == 1000 and bucket_top(1000) == 1003
        assert bucket_edge(30_000) == 29_952
        assert bucket_edge(100_000) == 99_840
        assert bucket_edge(2**40 + 12345) == 2**40

    @settings(max_examples=300, deadline=None)
    @given(value=st.integers(min_value=0, max_value=10**18))
    def test_property_value_lies_in_a_narrow_bucket(self, value):
        edge = bucket_edge(value)
        top = bucket_top(edge)
        assert edge <= value <= top
        assert top - edge < max(1, edge * ERROR)
        # Buckets tile the integers: the next value starts the next bucket.
        assert bucket_edge(top + 1) == top + 1
        assert bucket_edge(top) == edge

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LatencyHistogram().record(-300)

    def test_zero_gets_its_own_bucket(self):
        histogram = _filled([0, 0, 1])
        assert histogram.checkpoint()["buckets"] == [[0, 2], [1, 1]]
        assert histogram.fraction_below(1) == pytest.approx(2 / 3)

    def test_power_of_two_boundaries(self):
        # Every power of two from 2**8 up starts a bucket, and the value
        # just below it ends the previous one.
        for exponent in range(8, 61):
            power = 2 ** exponent
            assert bucket_edge(power) == power
            assert bucket_top(bucket_edge(power - 1)) == power - 1
            assert bucket_top(power) - power + 1 == 2 ** (exponent - MANTISSA_BITS)


class TestQueries:
    @settings(max_examples=200, deadline=None)
    @given(values=latencies.filter(bool),
           fraction=st.floats(min_value=1e-6, max_value=1.0))
    def test_property_percentile_within_error(self, values, fraction):
        exact = _exact_percentile(values, fraction)
        got = _filled(values).percentile(fraction)
        assert exact <= got <= exact * (1 + ERROR)

    @settings(max_examples=200, deadline=None)
    @given(values=latencies.filter(bool), threshold=st.integers(0, 10**12))
    def test_property_fraction_below_exact_at_bucket_edges(self, values, threshold):
        histogram = _filled(values)
        edge = bucket_edge(threshold)
        exact = sum(value < edge for value in values) / len(values)
        assert histogram.fraction_below(edge) == exact
        # Elsewhere the read is at the edge below, within the error.
        assert histogram.fraction_below(threshold) == exact
        assert threshold - edge <= threshold * ERROR

    def test_single_valued_percentile_is_exact(self):
        histogram = _filled([13_070] * 50)
        assert histogram.percentile(0.5) == histogram.percentile(0.99) == 13_070

    def test_exact_fields(self):
        values = [10**9 + 7, 3, 123_456_789, 255, 256]
        histogram = _filled(values)
        assert (histogram.count, histogram.sum_ns) == (len(values), sum(values))
        assert (histogram.min_ns, histogram.max_ns) == (3, 10**9 + 7)
        assert histogram.mean_ns == sum(values) / len(values)
        assert histogram.percentile(1.0) == 10**9 + 7

    @pytest.mark.parametrize("fraction", [0, -0.5, 1.01, 2])
    def test_percentile_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError, match="out of range"):
            _filled([5]).percentile(fraction)

    @pytest.mark.parametrize(
        "fraction,value", [(0.001, 1), (0.01, 1), (0.25, 25), (0.999, 100)]
    )
    def test_percentile_is_nearest_rank(self, fraction, value):
        assert _filled(range(100, 0, -1)).percentile(fraction) == value

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0
        assert histogram.fraction_below(10) == 0.0
        assert histogram.mean_ns == 0.0
        assert (histogram.min_ns, histogram.max_ns, histogram.count) == (None, None, 0)

    @settings(max_examples=100, deadline=None)
    @given(values=latencies.filter(bool),
           fractions=st.lists(st.floats(min_value=1e-6, max_value=1.0),
                              min_size=2, max_size=6))
    def test_property_percentile_is_monotone(self, values, fractions):
        histogram = _filled(values)
        reads = [histogram.percentile(fraction) for fraction in sorted(fractions)]
        assert reads == sorted(reads)
        assert histogram.min_ns <= reads[0] and reads[-1] <= histogram.max_ns

    def test_fig11_thresholds_read_at_their_bucket_edges(self):
        # 30 us and 100 us are not bucket edges: the reads count values
        # below the edges 29 952 and 99 840, under 0.8 % lower.
        histogram = _filled([29_951, 29_952, 30_000, 99_839, 99_840, 100_000])
        assert histogram.fraction_below(30_000) == pytest.approx(1 / 6)
        assert histogram.fraction_below(100_000) == pytest.approx(4 / 6)
        assert histogram.fraction_below(30_208) == pytest.approx(3 / 6)

    def test_record_is_seen_by_later_reads(self):
        histogram = _filled(range(100))
        assert histogram.percentile(1.0) == 99
        histogram.record(10_000)
        assert histogram.percentile(1.0) == 10_000
        assert histogram.fraction_below(10_000) == pytest.approx(100 / 101)

    def test_merge_is_seen_by_later_reads(self):
        histogram = _filled([1])
        assert histogram.percentile(1.0) == 1
        histogram.merge(_filled([500]))
        assert histogram.percentile(1.0) == 500
        assert histogram.fraction_below(2) == 0.5


class TestMerge:
    @settings(max_examples=100, deadline=None)
    @given(
        parts=st.lists(latencies, max_size=6),
        data=st.data(),
    )
    def test_property_any_grouping_and_order_gives_the_same_bytes(self, parts, data):
        """Merge is element-wise addition: shards merged in any order and
        any grouping give the bytes of recording every value into one."""
        whole = _filled([value for part in parts for value in part])
        order = data.draw(st.permutations(range(len(parts))))
        groups = data.draw(st.lists(st.integers(0, 2), min_size=len(parts),
                                    max_size=len(parts)))
        grouped = [LatencyHistogram() for _ in range(3)]
        for index in order:
            grouped[groups[index]].merge(_filled(parts[index]))
        merged = LatencyHistogram()
        for histogram in reversed(grouped):
            merged.merge(histogram)
        assert snapshot_bytes(merged.checkpoint()) == snapshot_bytes(whole.checkpoint())

    @settings(max_examples=100, deadline=None)
    @given(left=latencies, right=latencies)
    def test_property_merge_equals_concatenated_recording(self, left, right):
        merged = _filled(left).merge(_filled(right))
        combined = _filled(left + right)
        assert merged.checkpoint() == combined.checkpoint()
        if combined.count:
            for fraction in (0.25, 0.5, 0.99, 1.0):
                assert merged.percentile(fraction) == combined.percentile(fraction)
            assert merged.fraction_below(10**6) == combined.fraction_below(10**6)

    def test_merge_keeps_exact_aggregates(self):
        merged = _filled([5000]).merge(_filled(range(1000)))
        assert (merged.count, merged.min_ns, merged.max_ns) == (1001, 0, 5000)
        assert merged.mean_ns == pytest.approx((sum(range(1000)) + 5000) / 1001)
        assert sum(count for _edge, count in merged.checkpoint()["buckets"]) == 1001

    def test_merge_into_empty(self):
        merged = LatencyHistogram().merge(_filled([42]))
        assert (merged.count, merged.min_ns, merged.max_ns) == (1, 42, 42)

    def test_merge_empty_source_is_noop(self):
        merged = _filled([7])
        assert merged.merge(LatencyHistogram()) is merged
        assert merged.count == 1

    def test_merge_does_not_mutate_source(self):
        source = _filled([3, 7, 11, 70_000])
        before = source.checkpoint()
        _filled([70_001]).merge(source)
        assert source.checkpoint() == before

    def test_report_merge_histograms_does_not_mutate_inputs(self):
        # The report folds merge into a FRESH histogram: an input may be a
        # caller-held pod histogram's snapshot.
        first, second = _filled([10]), _filled([20_000])
        snapshots = [first.checkpoint(), second.checkpoint()]
        before = json.dumps(snapshots)
        assert merge_histograms(snapshots).count == 2
        assert json.dumps(snapshots) == before
        assert [first.checkpoint(), second.checkpoint()] == snapshots

    def test_merge_self_rejected(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError, match="itself"):
            histogram.merge(histogram)


class TestDifference:
    @settings(max_examples=150, deadline=None)
    @given(earlier=latencies, later=latencies)
    def test_property_difference_is_the_later_records(self, earlier, later):
        """Record A, snapshot, record B: the difference is B's sketch,
        its reads at most lifted inside their own buckets."""
        histogram = _filled(earlier)
        mark = histogram.checkpoint()
        for value in later:
            histogram.record(value)
        since = histogram.since(json.loads(json.dumps(mark)))
        fresh = _filled(later)
        assert since.checkpoint()["buckets"] == fresh.checkpoint()["buckets"]
        assert (since.count, since.sum_ns) == (fresh.count, fresh.sum_ns)
        if not later:
            assert (since.min_ns, since.max_ns) == (None, None)
            return
        assert since.min_ns <= fresh.min_ns and bucket_edge(since.min_ns) == bucket_edge(fresh.min_ns)
        assert since.max_ns >= fresh.max_ns and bucket_edge(since.max_ns) == bucket_edge(fresh.max_ns)
        for fraction in (1e-6, 0.25, 0.5, 0.9, 0.99, 1.0):
            got, own = since.percentile(fraction), fresh.percentile(fraction)
            assert got >= own and bucket_edge(got) == bucket_edge(own)

    @settings(max_examples=100, deadline=None)
    @given(values=latencies.filter(bool), extra=st.integers(0, 10**12))
    def test_property_non_prefix_raises(self, values, extra):
        histogram = _filled(values)
        ahead = _filled(values + [extra]).checkpoint()
        with pytest.raises(ValueError, match="not an earlier snapshot"):
            histogram.since(ahead)
        # A bucket above the live one with the same count: a different
        # record in place of one of ours.
        moved = _filled(values[1:] + [values[0] + 2**40]).checkpoint()
        with pytest.raises(ValueError, match="not an earlier snapshot"):
            histogram.since(moved)

    def test_difference_against_itself_is_empty(self):
        histogram = _filled([3, 300, 30_000])
        since = histogram.since(histogram.checkpoint())
        assert since.checkpoint() == LatencyHistogram().checkpoint()
        assert since.percentile(0.99) == 0

    def test_max_is_clamped_to_the_highest_remaining_bucket(self):
        histogram = _filled([1000, 1001])
        mark = histogram.checkpoint()
        histogram.record(1002)
        histogram.record(5)
        since = histogram.since(mark)
        # 1 000..1 003 is one bucket: the difference knows the cumulative
        # max 1 002 sits there, not that its own record is that one.
        assert (since.min_ns, since.max_ns, since.count) == (5, 1002, 2)
        histogram.record(70_000)
        mark = histogram.checkpoint()
        histogram.record(1001)
        since = histogram.since(mark)
        assert (since.min_ns, since.max_ns) == (1000, 1003)
        assert since.percentile(0.5) == 1003

    def test_difference_does_not_mutate_the_live_sketch(self):
        histogram = _filled([7, 700, 70_000])
        mark = histogram.checkpoint()
        histogram.record(701)
        before = histogram.checkpoint()
        histogram.since(mark)
        assert histogram.checkpoint() == before


class TestSnapshot:
    @settings(max_examples=100, deadline=None)
    @given(values=latencies, later=latencies)
    def test_property_restore_of_checkpoint_round_trips(self, values, later):
        original = _filled(values)
        copy = _filled([1, 2, 3])
        copy.restore(json.loads(json.dumps(original.checkpoint())))
        assert copy.checkpoint() == original.checkpoint()
        for value in later:
            original.record(value)
            copy.record(value)
        assert snapshot_bytes(copy.checkpoint()) == snapshot_bytes(original.checkpoint())

    def test_snapshot_is_the_four_scalars_and_the_buckets(self):
        snapshot = _filled([300, 5, 301, 5]).checkpoint()
        assert snapshot == {"count": 4, "sum": 611, "min": 5, "max": 301,
                            "buckets": [[5, 2], [300, 2]]}

    def test_seed_is_accepted_and_ignored(self):
        assert LatencyHistogram(seed=7).checkpoint() == LatencyHistogram().checkpoint()

    def test_snapshot_size_is_bounded_by_the_value_range(self):
        # Recording more values from the same range adds no buckets: the
        # snapshot grows with the range's bucket count, not with samples.
        # Every bucket in [2**16, 2**20) is wider than 97, so the first
        # fill already touches all 4 * 2**7 of them.
        histogram = _filled(range(2**16, 2**20, 97))
        buckets = len(histogram.checkpoint()["buckets"])
        for value in range(2**16 + 1, 2**20, 89):
            histogram.record(value)
        assert len(histogram.checkpoint()["buckets"]) == buckets == 4 * 2 ** MANTISSA_BITS


class TestReadsDoNotMutate:
    """``record`` is eager; reading never changes what a snapshot shows."""

    READERS = (
        lambda h: h.count, lambda h: h.mean_ns, lambda h: h.min_ns,
        lambda h: h.max_ns, lambda h: h.percentile(0.5),
        lambda h: h.fraction_below(1000), lambda h: h.checkpoint(),
        lambda h: h.merge(LatencyHistogram()),
    )

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=10**7), max_size=120),
        reads=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 7)), max_size=12),
    )
    def test_reads_anywhere_leave_the_same_snapshot(self, values, reads):
        quiet = LatencyHistogram()
        read_often = LatencyHistogram()
        read_at = {}
        for index, reader in reads:
            read_at.setdefault(index, []).append(self.READERS[reader])
        for index, value in enumerate(values):
            for reader in read_at.get(index, ()):
                reader(read_often)
            quiet.record(value)
            read_often.record(value)
        assert snapshot_bytes(read_often.checkpoint()) == snapshot_bytes(quiet.checkpoint())
