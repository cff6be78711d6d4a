"""L3 cache model tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import CACHE_LINE_BYTES, LruCacheModel, SharedL3Cache


class TestLruBasics:
    def test_first_access_misses(self):
        cache = LruCacheModel(capacity_bytes=1024)
        assert cache.access(0) is False
        assert cache.stats.misses == 1

    def test_repeat_access_hits(self):
        cache = LruCacheModel(capacity_bytes=1024)
        cache.access(0)
        assert cache.access(0) is True
        assert cache.stats.hits == 1

    def test_same_line_shared_by_nearby_addresses(self):
        cache = LruCacheModel(capacity_bytes=1024)
        cache.access(0)
        assert cache.access(63) is True
        assert cache.access(64) is False

    def test_lru_eviction_order(self):
        cache = LruCacheModel(capacity_bytes=2 * CACHE_LINE_BYTES)
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)  # 0 becomes MRU
        cache.access(2 * 64)  # evicts line 1 (LRU)
        assert cache.access(0 * 64) is True
        assert cache.access(1 * 64) is False

    def test_occupancy_capped(self):
        cache = LruCacheModel(capacity_bytes=4 * CACHE_LINE_BYTES)
        for line in range(100):
            cache.access(line * 64)
        # The last four lines stay; the fifth from last was evicted.
        assert [cache.access(line * 64) for line in range(96, 100)] == [True] * 4
        assert cache.access(95 * 64) is False

    def test_multi_line_entry_touches_all_lines(self):
        cache = LruCacheModel(capacity_bytes=4 * CACHE_LINE_BYTES)
        cache.access(0, size=256)  # 4 lines
        assert [cache.access(line * 64) for line in range(4)] == [True] * 4
        # Exactly four lines were installed: one new line evicts only line 0.
        assert cache.access(4 * 64) is False
        assert [cache.access(line * 64) for line in range(1, 5)] == [True] * 4
        assert cache.access(0) is False

    def test_multi_line_return_is_first_line(self):
        cache = LruCacheModel(capacity_bytes=1024)
        cache.access(128)
        assert cache.access(0, size=256) is False  # first line missing

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            LruCacheModel(capacity_bytes=32)

    def test_hit_rate(self):
        cache = LruCacheModel(capacity_bytes=1024)
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_shared_l3_default_is_200mb(self):
        assert SharedL3Cache().capacity_lines == 200 * (1 << 20) // 64


class TestWorkingSetBehaviour:
    def test_working_set_within_cache_all_hits_after_warmup(self):
        cache = LruCacheModel(capacity_bytes=64 * CACHE_LINE_BYTES)
        addresses = [line * 64 for line in range(32)]
        for addr in addresses:  # warmup
            cache.access(addr)
        cache.stats.reset()
        for _ in range(10):
            for addr in addresses:
                cache.access(addr)
        assert cache.stats.hit_rate == 1.0

    def test_working_set_beyond_cache_thrashes_under_lru_scan(self):
        """Sequential scans larger than the cache never hit under LRU."""
        cache = LruCacheModel(capacity_bytes=16 * CACHE_LINE_BYTES)
        addresses = [line * 64 for line in range(32)]
        for _ in range(5):
            for addr in addresses:
                cache.access(addr)
        assert cache.stats.hit_rate == 0.0

    def test_skewed_access_gives_partial_hit_rate(self):
        """Zipf-ish reuse yields the paper's intermediate hit rates."""
        import random

        rng = random.Random(1)
        cache = LruCacheModel(capacity_bytes=128 * CACHE_LINE_BYTES)
        hot = [line * 64 for line in range(64)]
        cold_span = 100_000
        for _ in range(20_000):
            if rng.random() < 0.5:
                cache.access(rng.choice(hot))
            else:
                cache.access(rng.randrange(cold_span) * 64)
        assert 0.2 < cache.stats.hit_rate < 0.7

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    def test_property_matches_reference_lru(self, accesses):
        """Model must agree with a straightforward reference LRU."""
        capacity = 8
        cache = LruCacheModel(capacity_bytes=capacity * CACHE_LINE_BYTES)
        reference = ReferenceLru(capacity)
        for line in accesses:
            assert cache.access(line * 64) == reference.access(line * 64)

    def test_seeded_trace_matches_reference_lru(self):
        """A long skewed trace of one- to four-line entries evicts on most
        misses; hits and misses agree with the reference access by access."""
        rng = random.Random(7)
        capacity = 256
        cache = LruCacheModel(capacity_bytes=capacity * CACHE_LINE_BYTES)
        reference = ReferenceLru(capacity)
        for _ in range(40_000):
            entry = min(rng.randrange(4096), rng.randrange(4096))
            address, size = entry * 80, rng.choice((8, 64, 200))
            assert cache.access(address, size) == reference.access(address, size)
        assert (cache.stats.hits, cache.stats.misses) == (reference.hits, reference.misses)
        assert reference.misses - capacity > 10_000  # evictions, not a warm cache


class ReferenceLru:
    """A list in recency order, least recent first: the LRU written out."""

    def __init__(self, capacity_lines):
        self.capacity_lines = capacity_lines
        self.lines = []
        self.hits = self.misses = 0

    def access(self, address, size=1):
        first = address // CACHE_LINE_BYTES
        last = (address + max(size, 1) - 1) // CACHE_LINE_BYTES
        return [self._touch(line) for line in range(first, last + 1)][0]

    def _touch(self, line):
        hit = line in self.lines
        if hit:
            self.lines.remove(line)
            self.hits += 1
        else:
            self.misses += 1
        self.lines.append(line)
        if len(self.lines) > self.capacity_lines:
            self.lines.pop(0)
        return hit
