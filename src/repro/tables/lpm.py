"""Longest-prefix-match structures for VXLAN route lookups.

Two implementations with identical semantics:

* :class:`LpmTrie` -- a binary trie; insertion/deletion is cheap, lookups
  walk up to 32 levels.  This is the control-plane friendly structure.
* :class:`Dir24_8Lpm` -- the DIR-24-8 scheme used by software routers
  (and by DPDK's ``rte_lpm``): a 2^24-entry top-level array plus 256-entry
  second-level tiles, giving at most two memory touches per lookup.  This
  is the data-plane structure whose footprint feeds the cache model.

Both are verified against each other with property-based tests.
"""


class Route:
    """An IPv4 route: ``prefix/length -> next_hop``."""

    __slots__ = ("prefix", "length", "next_hop")

    def __init__(self, prefix, length, next_hop):
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        mask = _mask(length)
        if prefix & ~mask & 0xFFFFFFFF:
            raise ValueError(
                f"prefix 0x{prefix:08x} has bits below /{length}"
            )
        self.prefix = prefix
        self.length = length
        self.next_hop = next_hop

    def covers(self, addr):
        return (addr & _mask(self.length)) == self.prefix

    def __eq__(self, other):
        return (
            isinstance(other, Route)
            and (self.prefix, self.length, self.next_hop)
            == (other.prefix, other.length, other.next_hop)
        )

    def __repr__(self):
        return f"Route(0x{self.prefix:08x}/{self.length} -> {self.next_hop!r})"


def _mask(length):
    return 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF


class _TrieNode:
    __slots__ = ("children", "next_hop", "has_route")

    def __init__(self):
        self.children = [None, None]
        self.next_hop = None
        self.has_route = False


class LpmTrie:
    """Binary-trie longest-prefix match over IPv4 addresses."""

    def __init__(self):
        self._root = _TrieNode()
        self._size = 0

    def __len__(self):
        return self._size

    def insert(self, prefix, length, next_hop):
        """Insert or replace the route ``prefix/length``."""
        Route(prefix, length, next_hop)  # validate
        node = self._root
        for depth in range(length):
            bit = (prefix >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if not node.has_route:
            self._size += 1
        node.has_route = True
        node.next_hop = next_hop

    def remove(self, prefix, length):
        """Remove ``prefix/length``; returns True if it was present."""
        node = self._root
        path = []
        for depth in range(length):
            bit = (prefix >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if not node.has_route:
            return False
        node.has_route = False
        node.next_hop = None
        self._size -= 1
        # Prune now-empty leaves so memory tracks the route count.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child.has_route or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def lookup(self, addr):
        """Return the next hop of the longest matching prefix, or None."""
        node = self._root
        best = node.next_hop if node.has_route else None
        for depth in range(32):
            bit = (addr >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            if node.has_route:
                best = node.next_hop
        return best

    def routes(self):
        """Yield all installed :class:`Route` objects (DFS order)."""
        stack = [(self._root, 0, 0)]
        while stack:
            node, prefix, depth = stack.pop()
            if node.has_route:
                yield Route(prefix, depth, node.next_hop)
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    stack.append((child, prefix | (bit << (31 - depth)), depth + 1))


class Dir24_8Lpm:
    """DIR-24-8 longest-prefix match.

    The top-level table has one slot per /24; prefixes longer than /24
    allocate a 256-entry second-level tile.  Lookup is ``top[addr >> 8]``
    and, if that slot points to a tile, ``tile[addr & 0xFF]``.

    Prefixes shorter than /16 are not expanded into the top level (a /0
    would be 2^24 writes): they stay in the route map and are consulted
    only when the two-level walk finds nothing, which is correct because
    every expanded entry is at least a /16 and so outranks them.

    Insertion is incremental; route deletion requires a rebuild via
    :meth:`from_routes` (as with DPDK's ``rte_lpm``, deletes are the
    control plane's slow path).
    """

    _SHORT = 16

    def __init__(self):
        # top[i] is either ("hop", next_hop, length) or ("tile", index, 0)
        self._top = {}
        self._tiles = []
        self._free_tiles = []
        self._routes = {}
        self._short_lengths = []    # lengths < _SHORT present, longest first

    def __len__(self):
        return len(self._routes)

    @property
    def tiles_allocated(self):
        return len(self._tiles) - len(self._free_tiles)

    def insert(self, prefix, length, next_hop):
        """Insert or replace ``prefix/length``."""
        Route(prefix, length, next_hop)  # validate
        self._routes[(prefix, length)] = next_hop
        if length < self._SHORT:
            if length not in self._short_lengths:
                self._short_lengths.append(length)
                self._short_lengths.sort(reverse=True)
        elif length <= 24:
            start = prefix >> 8
            count = 1 << (24 - length)
            for slot in range(start, start + count):
                self._write_top(slot, next_hop, length)
        else:
            slot = prefix >> 8
            tile = self._tile_for_slot(slot)
            start = prefix & 0xFF
            count = 1 << (32 - length)
            for offset in range(start, start + count):
                entry = tile[offset]
                if entry is None or entry[1] <= length:
                    tile[offset] = (next_hop, length)

    def _write_top(self, slot, next_hop, length):
        current = self._top.get(slot)
        if current is None:
            self._top[slot] = ("hop", next_hop, length)
        elif current[0] == "hop":
            if current[2] <= length:
                self._top[slot] = ("hop", next_hop, length)
        else:  # tile: fill shorter entries only
            tile = self._tiles[current[1]]
            for offset in range(256):
                entry = tile[offset]
                if entry is None or entry[1] <= length:
                    tile[offset] = (next_hop, length)

    def _tile_for_slot(self, slot):
        current = self._top.get(slot)
        if current is not None and current[0] == "tile":
            return self._tiles[current[1]]
        if self._free_tiles:
            index = self._free_tiles.pop()
            tile = self._tiles[index]
            for offset in range(256):
                tile[offset] = None
        else:
            index = len(self._tiles)
            tile = [None] * 256
            self._tiles.append(tile)
        if current is not None and current[0] == "hop":
            _, hop, length = current
            for offset in range(256):
                tile[offset] = (hop, length)
        self._top[slot] = ("tile", index, 0)
        return tile

    def lookup(self, addr):
        """Return the next hop for ``addr``, or None."""
        entry = self._top.get(addr >> 8)
        if entry is not None:
            if entry[0] == "hop":
                return entry[1]
            tile_entry = self._tiles[entry[1]][addr & 0xFF]
            if tile_entry is not None:
                return tile_entry[0]
        for length in self._short_lengths:
            key = (addr & _mask(length), length)
            if key in self._routes:
                return self._routes[key]
        return None

    @classmethod
    def from_routes(cls, routes):
        """Build from an iterable of :class:`Route`, shortest first.

        Inserting shortest-first lets longer prefixes overwrite correctly
        in one pass.
        """
        table = cls()
        for route in sorted(routes, key=lambda r: r.length):
            table.insert(route.prefix, route.length, route.next_hop)
        return table

    def memory_bytes(self, top_entry_bytes=4, tile_entry_bytes=4):
        """Approximate data-plane memory footprint.

        A full DIR-24-8 deployment always materializes the 2^24 top array;
        tiles are allocated on demand.
        """
        top = (1 << 24) * top_entry_bytes
        tiles = self.tiles_allocated * 256 * tile_entry_bytes
        return top + tiles
