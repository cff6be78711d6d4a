"""Finite packet queues and DPDK-style mempool accounting.

The paper's HOL post-mortems (§4.1) blame, among other things, RX/TX queue
congestion, insufficient PCIe descriptors, and a too-small
``DPDK_RTE_MEMPOOL_CACHE``.  These classes give the simulation the same
failure modes: queues drop when full, and the mempool can run out of mbufs.
"""

from collections import deque


class PacketQueue:
    """Bounded FIFO with drop accounting (an RX or TX descriptor ring)."""

    def __init__(self, capacity=1024, name="queue"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.name = name
        # In-flight packets: quiescent checkpoints require the queue to
        # have drained, so the items themselves are never snapshot data.
        self._items = deque()  # lint: disable=SNAP001(in-flight packets; checkpoints happen with the queue drained)
        self.enqueued = 0
        self.dropped = 0
        self.high_watermark = 0

    def checkpoint(self):
        """Plain-data counter snapshot (queued packets must have drained)."""
        return {
            "enqueued": self.enqueued,
            "dropped": self.dropped,
            "high_watermark": self.high_watermark,
        }

    def restore(self, snapshot):
        self.enqueued = snapshot["enqueued"]
        self.dropped = snapshot["dropped"]
        self.high_watermark = snapshot["high_watermark"]

    def __len__(self):
        return len(self._items)

    @property
    def is_empty(self):
        return not self._items

    @property
    def is_full(self):
        return len(self._items) >= self.capacity

    def push(self, packet):
        """Enqueue; returns False (and counts a drop) when full."""
        items = self._items
        if len(items) >= self.capacity:
            self.dropped += 1
            return False
        items.append(packet)
        self.enqueued += 1
        if len(items) > self.high_watermark:
            self.high_watermark = len(items)
        return True

    def pop(self):
        """Dequeue the oldest packet, or None when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def drain(self):
        """Remove and return all queued packets."""
        items = list(self._items)
        self._items.clear()
        return items


class MempoolExhausted(Exception):
    """Raised when an mbuf allocation fails (pool empty)."""


class DpdkMempool:
    """mbuf pool with a per-core cache, as in DPDK's ``rte_mempool``.

    A too-small per-core cache causes frequent round-trips to the shared
    ring, which the paper found inflates latency; we model that as a fixed
    penalty per shared-ring refill.
    """

    def __init__(self, size=65536, per_core_cache=512, refill_penalty_ns=800):
        self.size = size
        self.per_core_cache = per_core_cache
        self.refill_penalty_ns = refill_penalty_ns
        self._available = size
        self._core_cache = {}
        self.refills = 0
        self.allocation_failures = 0

    @property
    def available(self):
        return self._available

    def alloc(self, core_id):
        """Allocate one mbuf for ``core_id``.

        Returns the allocation overhead in nanoseconds (0 on a cache hit,
        ``refill_penalty_ns`` when the per-core cache had to refill).
        Raises :class:`MempoolExhausted` when the pool is empty.
        """
        cached = self._core_cache.get(core_id, 0)
        if cached > 0:
            self._core_cache[core_id] = cached - 1
            return 0
        # Refill from shared ring: half the cache size at a time.
        batch = max(1, self.per_core_cache // 2)
        take = min(batch, self._available)
        if take == 0:
            self.allocation_failures += 1
            raise MempoolExhausted("mempool empty")
        self._available -= take
        self._core_cache[core_id] = take - 1
        self.refills += 1
        return self.refill_penalty_ns

    def free(self, core_id):
        """Return one mbuf from ``core_id``.

        Overfull per-core caches flush half back to the shared ring.
        """
        cached = self._core_cache.get(core_id, 0) + 1
        if cached > self.per_core_cache:
            flush = self.per_core_cache // 2
            self._available += flush
            cached -= flush
        self._core_cache[core_id] = cached

    def outstanding(self):
        """mbufs currently held by cores or in flight."""
        cached = sum(self._core_cache.values())
        return self.size - self._available - cached
