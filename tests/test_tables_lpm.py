"""LPM tests: trie semantics, DIR-24-8 equivalence (property-based)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet.flows import ip_from_str
from repro.tables.lpm import Dir24_8Lpm, LpmTrie, Route


def make_prefix(value, length):
    """Mask ``value`` down to a valid prefix of ``length``."""
    if length == 0:
        return 0
    return value & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)


class TestRoute:
    def test_validates_stray_bits(self):
        with pytest.raises(ValueError):
            Route(0x0A000001, 24, "x")

    def test_validates_length(self):
        with pytest.raises(ValueError):
            Route(0, 33, "x")

    def test_covers(self):
        route = Route(ip_from_str("10.1.0.0"), 16, "x")
        assert route.covers(ip_from_str("10.1.200.3"))
        assert not route.covers(ip_from_str("10.2.0.1"))


class TestLpmTrie:
    def test_longest_prefix_wins(self):
        trie = LpmTrie()
        trie.insert(ip_from_str("10.0.0.0"), 8, "short")
        trie.insert(ip_from_str("10.1.0.0"), 16, "long")
        assert trie.lookup(ip_from_str("10.1.2.3")) == "long"
        assert trie.lookup(ip_from_str("10.9.2.3")) == "short"

    def test_default_route(self):
        trie = LpmTrie()
        trie.insert(0, 0, "default")
        assert trie.lookup(0xDEADBEEF) == "default"

    def test_no_match_returns_none(self):
        trie = LpmTrie()
        trie.insert(ip_from_str("10.0.0.0"), 8, "x")
        assert trie.lookup(ip_from_str("11.0.0.1")) is None

    def test_host_route(self):
        trie = LpmTrie()
        trie.insert(ip_from_str("10.0.0.5"), 32, "host")
        trie.insert(ip_from_str("10.0.0.0"), 24, "net")
        assert trie.lookup(ip_from_str("10.0.0.5")) == "host"
        assert trie.lookup(ip_from_str("10.0.0.6")) == "net"

    def test_replace_updates_next_hop(self):
        trie = LpmTrie()
        trie.insert(ip_from_str("10.0.0.0"), 24, "a")
        trie.insert(ip_from_str("10.0.0.0"), 24, "b")
        assert len(trie) == 1
        assert trie.lookup(ip_from_str("10.0.0.1")) == "b"

    def test_remove(self):
        trie = LpmTrie()
        trie.insert(ip_from_str("10.0.0.0"), 8, "short")
        trie.insert(ip_from_str("10.1.0.0"), 16, "long")
        assert trie.remove(ip_from_str("10.1.0.0"), 16)
        assert trie.lookup(ip_from_str("10.1.2.3")) == "short"
        assert not trie.remove(ip_from_str("10.1.0.0"), 16)
        assert len(trie) == 1

    def test_routes_enumeration_round_trips(self):
        trie = LpmTrie()
        inserted = {
            (ip_from_str("10.0.0.0"), 8),
            (ip_from_str("10.1.0.0"), 16),
            (ip_from_str("192.168.1.0"), 24),
            (0, 0),
        }
        for prefix, length in inserted:
            trie.insert(prefix, length, f"{prefix}/{length}")
        listed = {(route.prefix, route.length) for route in trie.routes()}
        assert listed == inserted


class TestDir24_8:
    def test_short_prefix(self):
        table = Dir24_8Lpm()
        table.insert(ip_from_str("10.0.0.0"), 8, "x")
        assert table.lookup(ip_from_str("10.200.1.2")) == "x"
        assert table.tiles_allocated == 0

    def test_long_prefix_allocates_tile(self):
        table = Dir24_8Lpm()
        table.insert(ip_from_str("10.0.0.128"), 25, "hi")
        assert table.tiles_allocated == 1
        assert table.lookup(ip_from_str("10.0.0.200")) == "hi"
        assert table.lookup(ip_from_str("10.0.0.5")) is None

    def test_long_over_short(self):
        table = Dir24_8Lpm()
        table.insert(ip_from_str("10.0.0.0"), 16, "net")
        table.insert(ip_from_str("10.0.3.7"), 32, "host")
        assert table.lookup(ip_from_str("10.0.3.7")) == "host"
        assert table.lookup(ip_from_str("10.0.3.8")) == "net"

    def test_from_routes_orders_by_length(self):
        routes = [
            Route(ip_from_str("10.0.3.7"), 32, "host"),
            Route(ip_from_str("10.0.0.0"), 8, "net8"),
            Route(ip_from_str("10.0.0.0"), 16, "net16"),
        ]
        table = Dir24_8Lpm.from_routes(routes)
        assert table.lookup(ip_from_str("10.0.3.7")) == "host"
        assert table.lookup(ip_from_str("10.0.9.9")) == "net16"
        assert table.lookup(ip_from_str("10.99.0.1")) == "net8"

    def test_default_route_is_not_expanded(self):
        # A /0 must not cost 2^24 top-level writes, and must serve both a
        # top-level miss and a hole in a tile allocated before it existed.
        table = Dir24_8Lpm()
        table.insert(ip_from_str("10.0.0.128"), 25, "hi")
        table.insert(0, 0, "default")
        table.insert(ip_from_str("10.0.0.0"), 8, "net8")
        assert len(table._top) == 1
        assert table.lookup(ip_from_str("10.0.0.200")) == "hi"
        assert table.lookup(ip_from_str("10.0.0.5")) == "net8"
        assert table.lookup(ip_from_str("10.9.9.9")) == "net8"
        assert table.lookup(ip_from_str("192.0.2.1")) == "default"

    def test_memory_accounting(self):
        table = Dir24_8Lpm()
        base = table.memory_bytes()
        table.insert(ip_from_str("10.0.0.128"), 25, "hi")
        assert table.memory_bytes() == base + 256 * 4


@st.composite
def route_sets(draw):
    count = draw(st.integers(1, 25))
    routes = []
    for _ in range(count):
        length = draw(st.integers(0, 32))
        prefix = make_prefix(draw(st.integers(0, 0xFFFFFFFF)), length)
        routes.append(Route(prefix, length, f"hop-{prefix:08x}-{length}"))
    return routes


class TestTrieVsDir24_8Property:
    @settings(max_examples=60, deadline=None)
    @given(routes=route_sets(), probes=st.lists(st.integers(0, 0xFFFFFFFF), min_size=5, max_size=30))
    def test_identical_lookups(self, routes, probes):
        """The trie and DIR-24-8 must agree on every lookup."""
        trie = LpmTrie()
        for route in routes:
            trie.insert(route.prefix, route.length, route.next_hop)
        table = Dir24_8Lpm.from_routes(trie.routes())
        # Probe random addresses plus each route's own prefix boundaries.
        targets = list(probes)
        for route in routes:
            targets.append(route.prefix)
            targets.append(route.prefix | (0xFFFFFFFF >> route.length if route.length else 0xFFFFFFFF))
        for addr in targets:
            assert trie.lookup(addr) == table.lookup(addr), hex(addr)

    @settings(max_examples=30, deadline=None)
    @given(routes=route_sets())
    def test_trie_matches_linear_scan(self, routes):
        """The trie must agree with a brute-force longest-match scan."""
        trie = LpmTrie()
        best = {}
        for route in routes:
            trie.insert(route.prefix, route.length, route.next_hop)
            best[(route.prefix, route.length)] = route.next_hop
        unique = [
            Route(prefix, length, hop) for (prefix, length), hop in best.items()
        ]
        for probe in [r.prefix for r in unique]:
            covering = [r for r in unique if r.covers(probe)]
            expected = (
                max(covering, key=lambda r: r.length).next_hop if covering else None
            )
            assert trie.lookup(probe) == expected
