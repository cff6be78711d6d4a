"""``plb_reorder``: the FIFO / BUF / BITMAP reorder engine (§4.1, Fig. 3).

Data structures, mirroring the FPGA implementation:

* **FIFO** -- one order-preserving queue per reorder queue; each element is
  a reorder info (full PSN + arrival timestamp).  Bounded at ``depth``
  entries (4K in production: 100 µs of packets at 40 Mpps).
* **BUF**  -- packet storage indexed by ``psn[11:0]``; holds packets that
  returned from the CPU but are not yet at the FIFO head.
* **BITMAP** -- a lightweight mirror of BUF: (valid bit, PSN) per slot, the
  only state the head-monitor has to consult per FPGA cycle.

Egress processing:

* **legal check** -- a packet returning from a TX data queue is valid iff
  its ``psn[11:0]`` falls inside the FIFO's [head, tail) window.  Valid
  packets are written to BUF/BITMAP; invalid ones (essentially timed-out
  packets) are transmitted best-effort immediately (or dropped, if they
  were header-only and the NIC already released the payload).
* **reorder check** -- monitors the FIFO head.  Case 1: head older than
  the timeout (100 µs) is released.  Case 2: valid bit 0 -> keep waiting.
  Case 3: valid bit set but PSN mismatch -> a timed-out packet slipped
  through the legal check; transmit it best-effort and keep waiting.
  Case 4: PSN matches -> transmit in order.

The **active drop flag** (§4.1 HOL handling) lets the CPU notify the NIC
of explicit drops (ACL / rate limiting) so the reorder resources are
released immediately instead of stalling the FIFO for 100 µs.

The hardware busy-waits at the FPGA clock; the simulation is event-driven
and exact: the head is re-examined whenever (a) a packet writes back,
(b) the head changes, or (c) the head's timeout expires.
"""

import enum
from collections import deque

from repro.analysis.sanitizer import get_sanitizer
from repro.sim.units import US


class TxOutcome(enum.Enum):
    """How a packet left the reorder engine (or failed to)."""

    IN_ORDER = "in_order"              # case 4: transmitted in order
    BEST_EFFORT = "best_effort"        # late packet transmitted out of order
    DROPPED_PAYLOAD_GONE = "payload_gone"  # header-only, payload released
    RELEASED_DROP_FLAG = "drop_flag"   # CPU set the drop flag; slot released


class ReorderInfo:
    """FIFO element: one in-flight packet's order bookkeeping."""

    __slots__ = ("psn", "enqueue_ns")

    def __init__(self, psn, enqueue_ns):
        self.psn = psn
        self.enqueue_ns = enqueue_ns

    def __repr__(self):
        return f"ReorderInfo(psn={self.psn}, t={self.enqueue_ns})"


class ReorderQueueConfig:
    """Sizing knobs for the reorder queues."""

    def __init__(self, queue_count=4, depth=4096, timeout_ns=100 * US):
        if queue_count < 1:
            raise ValueError("need at least one reorder queue")
        if depth < 1 or depth > 4096:
            # psn[11:0] indexing caps the per-queue depth at 4096.
            raise ValueError("depth must be in [1, 4096]")
        self.queue_count = queue_count
        self.depth = depth
        self.timeout_ns = timeout_ns


class ReorderStats:
    """Counters across all queues of one engine."""

    __slots__ = (
        "admitted",
        "in_order",
        "best_effort",
        "timeout_releases",
        "drop_flag_releases",
        "stale_writebacks",
        "payload_gone_drops",
        "fifo_full",
        "hol_events",
        "resets",
        "reset_inflight_drops",
        "stale_epoch_writebacks",
    )

    def __init__(self):
        for slot in self.__slots__:
            setattr(self, slot, 0)

    @property
    def transmitted(self):
        return self.in_order + self.best_effort

    def disorder_rate(self):
        """Fraction of transmitted packets that left out of order."""
        if self.transmitted == 0:
            return 0.0
        return self.best_effort / self.transmitted

    def checkpoint(self):
        """Plain-data snapshot (slot order is the declaration order)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def restore(self, snapshot):
        for slot in self.__slots__:
            setattr(self, slot, snapshot[slot])


class _ReorderQueue:
    """One FIFO + BUF + BITMAP triple."""

    __slots__ = (
        "fifo",
        "buf",
        "bitmap_valid",
        "bitmap_psn",
        "head_ptr",
        "tail_ptr",
        "timeout_event",
    )

    def __init__(self):
        self.fifo = deque()
        self.buf = [None] * 4096          # slot -> (packet, header_only)
        self.bitmap_valid = [False] * 4096
        self.bitmap_psn = [0] * 4096
        self.head_ptr = 0                  # PSN of the current FIFO head
        self.tail_ptr = 0                  # next PSN to assign
        self.timeout_event = None


class ReorderEngine:
    """All reorder queues of one GW pod.

    Parameters:
        sim: the simulator (drives timeout events).
        config: a :class:`ReorderQueueConfig`.
        transmit_fn: called as ``transmit_fn(packet, outcome)`` whenever a
            packet leaves the engine (in order or best effort).
        payload_retention_ns: how long the NIC retains split payloads; a
            late header-only packet whose payload aged out is dropped.
    """

    def __init__(self, sim, config, transmit_fn, payload_retention_ns=1_000 * US):
        self.sim = sim
        self.config = config
        self.transmit_fn = transmit_fn
        self.payload_retention_ns = payload_retention_ns
        self.stats = ReorderStats()
        self.epoch = 0
        self._queues = [_ReorderQueue() for _ in range(config.queue_count)]
        self._sanitizer = get_sanitizer()

    @property
    def queue_count(self):
        return self.config.queue_count

    def occupancy(self, ordq):
        """In-flight packets tracked by queue ``ordq``."""
        return len(self._queues[ordq].fifo)

    # ------------------------------------------------------------------
    # Ingress side (called by PlbDispatcher)
    # ------------------------------------------------------------------

    def admit(self, ordq, now_ns):
        """Reserve the next PSN in queue ``ordq`` and enqueue reorder info.

        Returns the assigned PSN, or None if the FIFO is full.
        """
        queue = self._queues[ordq]
        fifo = queue.fifo
        if len(fifo) >= self.config.depth:
            self.stats.fifo_full += 1
            return None
        psn = queue.tail_ptr
        queue.tail_ptr = psn + 1
        fifo.append(ReorderInfo(psn, now_ns))
        self.stats.admitted += 1
        if self._sanitizer is not None:
            self._sanitizer.ensure(
                len(fifo) <= self.config.depth, "finite-queue-bound",
                f"reorder FIFO {ordq} holds {len(fifo)} entries, "
                f"depth is {self.config.depth}",
                ordq=ordq, occupancy=len(fifo), depth=self.config.depth,
            )
        if len(fifo) == 1:
            self._arm_timeout(ordq, queue)
        return psn

    # ------------------------------------------------------------------
    # Egress side (called by the NIC TX path)
    # ------------------------------------------------------------------

    def writeback(self, packet):
        """A packet returned from the CPU via a TX data queue.

        Runs the legal check; valid packets land in BUF/BITMAP, invalid
        ones leave best-effort immediately.  The drop flag releases the
        packet's reorder slot without transmission.
        """
        meta = packet.meta
        if meta is None:
            raise ValueError("writeback of a packet without PLB meta")
        if meta.epoch != self.epoch:
            # Admitted before a watchdog pipeline reset: its FIFO slot is
            # gone and its PSN belongs to a dead generation.  Handle it
            # best-effort so a stale sequence number can never block or
            # misorder the post-recovery window.
            self.stats.stale_epoch_writebacks += 1
            self._transmit_best_effort(packet, packet.header_only)
            return
        queue = self._queues[meta.ordq]

        # Legal check: is psn12 within the FIFO's [head, tail) window, mod
        # 4096?  Only the low 12 bits are compared, exactly as in the
        # hardware; a very stale packet can alias into the window (caught
        # later by the reorder check's PSN comparison, case 3).
        slot = meta.psn & 0xFFF
        outstanding = len(queue.fifo)
        if outstanding == 0 or (slot - (queue.head_ptr & 0xFFF)) & 0xFFF >= outstanding:
            # Timed-out packet whose slot has already been released:
            # best-effort, or dropped if its payload is gone.
            self._transmit_best_effort(packet, packet.header_only)
            self._drain(meta.ordq, queue)
            return

        if queue.bitmap_valid[slot]:
            # Extremely late duplicate writeback into an occupied slot:
            # forward the resident best-effort and take the slot over.
            resident, header_only = queue.buf[slot]
            self.stats.stale_writebacks += 1
            self._transmit_best_effort(resident, header_only)
        queue.buf[slot] = (packet, meta.header_only or packet.header_only)
        queue.bitmap_valid[slot] = True
        queue.bitmap_psn[slot] = meta.psn
        # A set drop flag (the CPU deliberately dropped this packet) is
        # honoured by the drain: the slot is reclaimed the moment the
        # packet reaches the head -- immediately, if it is the head.
        self._drain(meta.ordq, queue)

    def reset(self):
        """FPGA watchdog pipeline reset: drop all in-flight reorder state.

        FIFOs, BUF and BITMAP are cleared, PSN generators rewind to 0 and
        the engine's epoch advances; writebacks of pre-reset packets are
        recognized by their stale epoch and handled best-effort.  BUF
        residents that had already returned from the CPU are lost with the
        rest of the pipeline state.  Returns the number of in-flight
        packets whose reorder state was dropped.
        """
        dropped = 0
        for queue in self._queues:
            dropped += len(queue.fifo)
            if queue.timeout_event is not None:
                queue.timeout_event.cancel()
            queue.__init__()  # the reset state is the constructed state
        self.epoch += 1
        self.stats.resets += 1
        self.stats.reset_inflight_drops += dropped
        return dropped

    def checkpoint(self):
        """Plain-data snapshot: epochs, PSN generators and stats.

        Requires a **drained** engine: in-flight packets (FIFO entries or
        BUF residents) are live objects that cannot serialize, and a
        migration's drain phase guarantees there are none.  Raises
        ``ValueError`` otherwise so a premature freeze is loud.
        """
        for ordq, queue in enumerate(self._queues):
            if queue.fifo or any(queue.bitmap_valid):
                raise ValueError(
                    f"cannot checkpoint reorder engine: queue {ordq} has "
                    f"in-flight packets (drain the pod first)"
                )
        return {
            "epoch": self.epoch,
            "queues": [
                {"head_ptr": queue.head_ptr, "tail_ptr": queue.tail_ptr}
                for queue in self._queues
            ],
            "stats": self.stats.checkpoint(),
        }

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint` in place.

        The engine must itself be empty (freshly built, or drained); PSN
        generators, epoch and stats continue exactly where the frozen
        engine stopped, so post-restore in-order releases keep strictly
        increasing PSNs per queue.
        """
        if len(snapshot["queues"]) != self.config.queue_count:
            raise ValueError(
                f"queue count mismatch: snapshot has "
                f"{len(snapshot['queues'])}, engine has "
                f"{self.config.queue_count}"
            )
        for queue, state in zip(self._queues, snapshot["queues"]):
            if queue.fifo or any(queue.bitmap_valid):
                raise ValueError("cannot restore into a non-empty reorder engine")
            if queue.timeout_event is not None:
                queue.timeout_event.cancel()
                queue.timeout_event = None
            queue.head_ptr = state["head_ptr"]
            queue.tail_ptr = state["tail_ptr"]
        self.epoch = snapshot["epoch"]
        self.stats.restore(snapshot["stats"])

    def notify_drop(self, packet):
        """Active drop-flag path: the CPU dropped ``packet`` explicitly."""
        if packet.meta is None:
            raise ValueError("drop notification without PLB meta")
        packet.meta.drop = True
        self.writeback(packet)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _drain(self, ordq, queue):
        """Reorder check: release every in-order head that is ready."""
        fifo = queue.fifo
        buf = queue.buf
        bitmap_valid = queue.bitmap_valid
        bitmap_psn = queue.bitmap_psn
        stats = self.stats
        transmit_fn = self.transmit_fn
        while fifo:
            head = fifo[0]
            head_psn = head.psn
            slot = head_psn & 0xFFF
            if not bitmap_valid[slot]:
                if self.sim._now - head.enqueue_ns >= self.config.timeout_ns:
                    # Case 1: head timed out; release it unfulfilled.
                    fifo.popleft()
                    queue.head_ptr = head_psn + 1
                    stats.timeout_releases += 1
                    stats.hol_events += 1
                    continue
                break  # Case 2: keep waiting for the CPU.
            packet, header_only = buf[slot]
            if bitmap_psn[slot] != head_psn:
                # Case 3: a stale (timed-out) packet passed the legal check.
                stats.stale_writebacks += 1
                buf[slot] = None
                bitmap_valid[slot] = False
                self._transmit_best_effort(packet, header_only)
                continue  # head still waits for its real packet
            # Case 4: in-order transmission (or drop-flag release).
            if self._sanitizer is not None:
                # Flows hash onto one order queue and the head pointer
                # only ever steps by one (a watchdog reset rewinds it with
                # the PSN generator), so a release that carries exactly
                # the head pointer implies per-flow order on the wire.
                self._sanitizer.ensure(
                    head_psn == queue.head_ptr, "reorder-release-order",
                    f"order queue {ordq} released PSN {head_psn} in order "
                    f"with its head pointer at {queue.head_ptr}",
                    ordq=ordq, psn=head_psn, head_ptr=queue.head_ptr,
                    epoch=self.epoch,
                )
            fifo.popleft()
            queue.head_ptr = head_psn + 1
            buf[slot] = None
            bitmap_valid[slot] = False
            meta = packet.meta
            if meta is not None and meta.drop:
                stats.drop_flag_releases += 1
                transmit_fn(packet, TxOutcome.RELEASED_DROP_FLAG)
            else:
                stats.in_order += 1
                transmit_fn(packet, TxOutcome.IN_ORDER)
        self._arm_timeout(ordq, queue)

    def _arm_timeout(self, ordq, queue):
        """Point the queue's timeout event at the current head's deadline.

        Head deadlines only move later (FIFO ``enqueue_ns`` is monotone, a past
        deadline clamps to now), so an armed event is rearmed in place.
        """
        event = queue.timeout_event
        if not queue.fifo:
            if event is not None:
                event.cancel()
                queue.timeout_event = None
            return
        sim = self.sim
        delay = queue.fifo[0].enqueue_ns + self.config.timeout_ns - sim._now
        if delay < 0:
            delay = 0
        if event is not None:
            sim.rearm(event, delay)
        else:
            queue.timeout_event = sim.schedule(delay, self._on_timeout, ordq)

    def _on_timeout(self, ordq):
        queue = self._queues[ordq]
        queue.timeout_event = None
        self._drain(ordq, queue)

    def _transmit_best_effort(self, packet, header_only):
        if packet.meta is not None and packet.meta.drop:
            # Late drop notification: nothing to send, nothing to release.
            self.stats.drop_flag_releases += 1
            return
        if header_only:
            age = self.sim.now - packet.meta.timestamp_ns
            if age > self.payload_retention_ns:
                self.stats.payload_gone_drops += 1
                packet.drop_reason = "payload_released"
                self.transmit_fn(packet, TxOutcome.DROPPED_PAYLOAD_GONE)
                return
        self.stats.best_effort += 1
        self.transmit_fn(packet, TxOutcome.BEST_EFFORT)
