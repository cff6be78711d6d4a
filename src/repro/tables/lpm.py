"""Longest-prefix match for VXLAN route lookups.

:class:`Dir24_8Lpm` is the DIR-24-8 scheme used by software routers (and
by DPDK's ``rte_lpm``): a 2^24-entry top-level array plus 256-entry
second-level tiles, giving at most two memory touches per lookup.  It is
the gateway's route table and the structure behind Tab. 6's LPM
capacity; property-based tests check it against a binary-trie oracle.
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
