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

from repro.controlplane.snapshot import Stateful
from repro.core.meta import PlbMeta
from repro.packet.flows import FlowMemo
from repro.packet.hashing import crc32_flow_hash

ORDQ_HASH_SEED = 0x0DD0


class PlbDispatcher(Stateful):
    """Sprays packets over cores and feeds the reorder engine's FIFOs.

    Parameters:
        cores: the pod's data cores, in RX-queue order.
        reorder: the pod's :class:`~repro.core.plb.reorder.ReorderEngine`.
            Its simulator's clock stamps every dispatched packet; the
            timestamps feed the reorder timeout logic.
        now_fn: ignored.  Still accepted so that callers of the older
            ``(cores, reorder, now_fn)`` signature keep working.
    """

    __slots__ = (
        "cores",
        "reorder",
        "_rr_index",
        "dispatched",
        "fifo_full_drops",
        "dead_core_drops",
        "_ordq_cache",
    )
    STATE = (("rr_index", "_rr_index"), "dispatched", "fifo_full_drops", "dead_core_drops")
    DERIVED = {"_ordq_cache": "pure memo of the CRC ordq hash; a rebuilt cache re-derives it"}

    def __init__(self, cores, reorder, now_fn=None):
        if not cores:
            raise ValueError("PLB needs at least one core")
        self.cores = list(cores)
        self.reorder = reorder
        self._rr_index = 0
        self.dispatched = 0
        self.fifo_full_drops = 0
        self.dead_core_drops = 0
        # Flow -> order queue: the CRC+mix is pure in the 5-tuple.
        self._ordq_cache = FlowMemo(self.ordq_index)

    def ordq_index(self, flow):
        """``get_ordq_idx``: 5-tuple hash onto the pod's order queues."""
        return crc32_flow_hash(flow, seed=ORDQ_HASH_SEED) % self.reorder.queue_count

    def dispatch(self, packet):
        """Tag and spray one packet.

        Returns the selected core, or None if the packet was dropped
        (order queue full, or every core offline).  On success the packet
        carries a populated ``meta`` and its reorder info is queued: the
        order queue's next PSN is reserved, ``(psn, now)`` joins its FIFO,
        and an empty FIFO's head timer is armed.  This is the reorder
        engine's only admission point.

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
        now = reorder.sim._now
        ordq = self._ordq_cache[packet.flow]
        queue = reorder._queues[ordq]
        fifo = queue.fifo
        occupancy = len(fifo)
        depth = reorder.config.depth
        if occupancy >= depth:
            # Rotation is not advanced on a drop: the slot stays with this
            # core for the next successful dispatch.
            reorder.stats.fifo_full += 1
            self.fifo_full_drops += 1
            packet.drop_reason = "reorder_fifo_full"
            return None
        psn = queue.tail_ptr
        queue.tail_ptr = psn + 1
        fifo.append((psn, now))
        reorder.stats.admitted += 1
        sanitizer = reorder._sanitizer
        if sanitizer is not None:
            sanitizer.ensure(
                len(fifo) <= depth, "finite-queue-bound",
                f"reorder FIFO {ordq} holds {len(fifo)} entries, "
                f"depth is {depth}",
                ordq=ordq, occupancy=len(fifo), depth=depth,
            )
        if not occupancy:
            reorder._arm_timeout(ordq, queue)
        self._rr_index = next_index
        packet.meta = PlbMeta(psn, ordq, now, False, reorder.epoch)
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
            # A failed core sets ``_failed``; fake cores without the flag
            # are available.
            if not getattr(core, "_failed", False):
                return core, index
        return None, self._rr_index

    def restore(self, snapshot):
        """Reinstate a checkpoint; the spray rotation continues from the
        frozen pointer (modulo the new core count)."""
        super().restore(snapshot)
        self._rr_index %= len(self.cores)
