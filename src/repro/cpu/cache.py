"""L3 cache model.

The paper's key observation (§4.2): gateway tables occupy several GB while
the shared L3 is ~200 MB, so table lookups hit L3 only 30-45% of the time
-- *regardless* of whether traffic is distributed per-flow (RSS) or
per-packet (PLB), because the L3 is shared across all cores either way.
This model reproduces that: a single LRU cache shared by every core of a
socket, accessed with table-entry addresses.

Line-accurate LRU over millions of lines is feasible in Python because an
``OrderedDict`` moves a hit line to the back and evicts the front line in
O(1).  A plain ``dict`` would not do: deleting from its front leaves dead
slots that every later ``next(iter(...))`` walks past.
"""

from collections import OrderedDict

CACHE_LINE_BYTES = 64


class CacheStats:
    """Hit/miss counters with derived rates."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self):
        self.hits = 0
        self.misses = 0

    def __repr__(self):
        return f"<CacheStats {self.hits} hits / {self.misses} misses ({self.hit_rate:.1%})>"


class LruCacheModel:
    """Fully-associative LRU cache over 64-byte lines.

    Addresses are byte addresses in a flat model address space; distinct
    tables are given distinct regions by :class:`~repro.cpu.service.ServiceChain`.
    Full associativity slightly overestimates hit rate vs. real set-associative
    hardware, which is acceptable for the 30-45% regime the paper reports.
    """

    def __init__(self, capacity_bytes):
        if capacity_bytes < CACHE_LINE_BYTES:
            raise ValueError(f"cache too small: {capacity_bytes} bytes")
        self.capacity_lines = capacity_bytes // CACHE_LINE_BYTES
        self._lines = OrderedDict()  # line_id -> None, front is least recent
        self.stats = CacheStats()

    def access(self, address, size=1):
        """Touch ``size`` bytes at ``address``; returns True on (first-line) hit.

        Multi-line entries touch every covered line; the return value
        reflects the first line, which is what gates the dependent load in
        the latency model.
        """
        first_line = address // CACHE_LINE_BYTES
        last_line = (address + max(size, 1) - 1) // CACHE_LINE_BYTES
        first_hit = self._touch(first_line)
        for line in range(first_line + 1, last_line + 1):
            self._touch(line)
        return first_hit

    def _touch(self, line):
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        lines[line] = None
        if len(lines) > self.capacity_lines:
            lines.popitem(last=False)
        return False


PAPER_L3_BYTES = 200 * (1 << 20)  # the testbed's ~200 MB shared L3 (§4.2)


class SharedL3Cache(LruCacheModel):
    """The socket-wide L3: one instance shared by all cores of a NUMA node.

    Identical to :class:`LruCacheModel`; the subclass exists so call sites
    read as what they model.
    """

    def __init__(self, capacity_bytes=PAPER_L3_BYTES):
        super().__init__(capacity_bytes)
