"""``plb_dispatch``: packet spray with order bookkeeping (§4.1, Fig. 3).

Ingress packets are sprayed across the pod's RX data queues round-robin.
Before a packet leaves for the CPU, dispatch:

1. selects an order-preserving queue by hashing the 5-tuple
   (``get_ordq_idx``) -- so all packets of one flow share a FIFO and
   per-flow order can be verified at egress;
2. claims the next PSN within that queue and appends the reorder info
   (PSN + arrival timestamp) to the FIFO tail;
3. tags the packet with the :class:`~repro.core.meta.PlbMeta` header.

If the selected FIFO is full the packet is dropped at ingress: the queue
length (4K) is provisioned to absorb 100 µs of packets at 40 Mpps, so a
full FIFO means a heavy hitter has exceeded what this queue can tolerate
(trade-off C1 in the paper).
"""

from repro.core.meta import PlbMeta
from repro.packet.hashing import crc32_flow_hash

ORDQ_HASH_SEED = 0x0DD0


class PlbDispatcher:
    """Sprays packets over cores and feeds the reorder engine's FIFOs.

    Parameters:
        cores: the pod's data cores, in RX-queue order.
        reorder: the pod's :class:`~repro.core.plb.reorder.ReorderEngine`.
        now_fn: callable returning the current time in ns (the simulator
            clock); timestamps feed the reorder timeout logic.
    """

    __slots__ = (
        "cores",
        "reorder",
        "now_fn",
        "_rr_index",
        "dispatched",
        "fifo_full_drops",
        "dead_core_drops",
        "_ordq_cache",
    )

    def __init__(self, cores, reorder, now_fn):
        if not cores:
            raise ValueError("PLB needs at least one core")
        self.cores = list(cores)
        self.reorder = reorder
        self.now_fn = now_fn
        self._rr_index = 0
        self.dispatched = 0
        self.fifo_full_drops = 0
        self.dead_core_drops = 0
        # Flow -> order queue memo (same bounded-cache pattern as the RSS
        # Toeplitz cache): the CRC+mix is pure in the 5-tuple, and flow
        # populations are tiny next to the cap.
        self._ordq_cache = {}  # lint: disable=SNAP001(pure memo of the CRC ordq hash; a rebuilt cache re-derives identical entries)

    def ordq_index(self, flow):
        """``get_ordq_idx``: 5-tuple hash onto the pod's order queues."""
        ordq = self._ordq_cache.get(flow)
        if ordq is None:
            ordq = crc32_flow_hash(flow, seed=ORDQ_HASH_SEED) % self.reorder.queue_count
            if len(self._ordq_cache) < 1_000_000:
                self._ordq_cache[flow] = ordq
        return ordq

    def dispatch(self, packet, header_only=False):
        """Tag and spray one packet.

        Returns the selected core, or None if the packet was dropped
        (order queue full, or every core offline).  On success the packet
        carries a populated ``meta`` and its reorder info is queued.

        Failed cores are skipped: the FPGA observes a dead doorbell and
        sprays around it, so PLB absorbs a lost core with the survivors
        (RSS, hash-pinned, cannot -- that contrast is the
        core-stall-plb-vs-rss fault scenario).
        """
        # The rotation's next core, inline; the scan only when it is failed.
        index = self._rr_index
        core = self.cores[index]
        next_index = index + 1 if index + 1 < len(self.cores) else 0
        if getattr(core, "_failed", False):
            core, next_index = self._next_available_core()
            if core is None:
                self.dead_core_drops += 1
                packet.drop_reason = "no_available_core"
                return None
        reorder = self.reorder
        now = self.now_fn()
        flow = packet.flow
        ordq = self._ordq_cache.get(flow)
        if ordq is None:
            ordq = self.ordq_index(flow)
        psn = reorder.admit(ordq, now)
        if psn is None:
            # Rotation is not advanced on a drop: the slot stays with this
            # core for the next successful dispatch.
            self.fifo_full_drops += 1
            packet.drop_reason = "reorder_fifo_full"
            return None
        self._rr_index = next_index
        packet.meta = PlbMeta(psn, ordq, now, False, header_only, reorder.epoch)
        packet.header_only = header_only
        self.dispatched += 1
        return core

    def _next_available_core(self):
        """Next online core in rotation, as ``(core, index_after_it)``.

        The caller commits ``index_after_it`` to ``_rr_index`` only once
        the dispatch succeeds, so drops do not advance the rotation.
        """
        cores = self.cores
        count = len(cores)
        index = self._rr_index
        for _ in range(count):
            core = cores[index]
            index += 1
            if index == count:
                index = 0
            # Equivalent to the `available` property, without the
            # descriptor call; fake cores without the flag are available.
            if not getattr(core, "_failed", False):
                return core, index
        return None, self._rr_index

    def checkpoint(self):
        """Plain-data snapshot: the rotation pointer and drop counters.

        The flow->ordq memo is **not** carried: it is a pure function of
        the 5-tuple and the queue count, so a restored dispatcher
        recomputes identical values on demand.
        """
        return {
            "rr_index": self._rr_index,
            "dispatched": self.dispatched,
            "fifo_full_drops": self.fifo_full_drops,
            "dead_core_drops": self.dead_core_drops,
        }

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint`; the spray rotation continues
        from the frozen pointer (modulo the new core count)."""
        self._rr_index = snapshot["rr_index"] % len(self.cores)
        self.dispatched = snapshot["dispatched"]
        self.fifo_full_drops = snapshot["fifo_full_drops"]
        self.dead_core_drops = snapshot["dead_core_drops"]

    def spray_counts(self):
        """Packets-per-core counter snapshot (diagnostics for Fig. 8)."""
        return {core.core_id: core.stats.processed for core in self.cores}
