"""``plb_reorder``: the FIFO / BUF / BITMAP reorder engine (§4.1, Fig. 3).

Data structures, mirroring the FPGA implementation:

* **FIFO** -- one order-preserving queue per reorder queue; each element is
  a reorder info, the tuple ``(psn, enqueue_ns)``: full PSN + arrival
  timestamp.  Bounded at ``depth``
  entries (4K in production: 100 µs of packets at 40 Mpps).
* **BUF**  -- packet storage indexed by ``psn[11:0]``; holds packets that
  returned from the CPU but are not yet at the FIFO head.
* **BITMAP** -- a lightweight mirror of BUF: (valid bit, PSN) per slot, the
  only state the head-monitor has to consult per FPGA cycle.  The model
  reads it off BUF itself: a slot is valid iff it holds a packet, and its
  PSN is that packet's ``meta.psn``.

Egress processing:

* **legal check** -- a packet returning from a TX data queue is valid iff
  its ``psn[11:0]`` falls inside the FIFO's [head, tail) window.  Valid
  packets are written to BUF/BITMAP; invalid ones (essentially timed-out
  packets) are transmitted best-effort immediately.
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
from repro.controlplane.snapshot import Stateful
from repro.sim.units import US


class TxOutcome(enum.Enum):
    """How a packet left the reorder engine (or failed to)."""

    IN_ORDER = "in_order"              # case 4: transmitted in order
    BEST_EFFORT = "best_effort"        # late packet transmitted out of order
    RELEASED_DROP_FLAG = "drop_flag"   # CPU set the drop flag; slot released

    # Identity hash: the gateway's outcome -> report-key lookup is per
    # packet, and ``Enum.__hash__`` is a Python-level call.
    __hash__ = object.__hash__


# Bound once: the release paths load these per packet, and a member loaded
# through its Enum class goes through ``EnumType.__getattr__``'s slot.
_IN_ORDER = TxOutcome.IN_ORDER
_BEST_EFFORT = TxOutcome.BEST_EFFORT
_RELEASED_DROP_FLAG = TxOutcome.RELEASED_DROP_FLAG


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


class ReorderStats(Stateful):
    """Counters across all queues of one engine."""

    __slots__ = (
        "admitted",
        "in_order",
        "best_effort",
        "timeout_releases",
        "drop_flag_releases",
        "stale_writebacks",
        "fifo_full",
        "hol_events",
        "resets",
        "reset_inflight_drops",
        "stale_epoch_writebacks",
    )
    STATE = __slots__

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


class _ReorderQueue(Stateful):
    """One FIFO + BUF pair (BUF's occupancy is the BITMAP); its snapshot
    is the PSN window."""

    __slots__ = (
        "fifo",
        "buf",
        "head_ptr",
        "tail_ptr",
        "timeout_event",
    )
    STATE = ("head_ptr", "tail_ptr")
    DERIVED = dict.fromkeys(
        ("fifo", "buf", "timeout_event"),
        "in-flight reorder state; the engine checkpoints drained",
    )

    def __init__(self):
        self.fifo = deque()
        self.buf = [None] * 4096          # slot -> packet; None is a clear valid bit
        self.head_ptr = 0                  # PSN of the current FIFO head
        self.tail_ptr = 0                  # next PSN to assign
        self.timeout_event = None


class ReorderEngine(Stateful):
    """All reorder queues of one GW pod.

    Parameters:
        sim: the simulator (drives timeout events).
        config: a :class:`ReorderQueueConfig`.
        transmit_fn: called as ``transmit_fn(packet, outcome)`` whenever a
            packet leaves the engine (in order or best effort), or its
            slot is released without transmission (drop flag).
        deparser: optional ``(delay_ns, fn)``, the owner's next hop.  With
            it, in-order and best-effort releases are queued as
            ``sim.post(delay_ns, fn, packet, outcome)`` would queue them
            (with ``sim.push``: the delay is a constant ``int`` >= 0)
            instead of handed to ``transmit_fn``, which then sees only
            drop-flag releases, the one outcome that never reaches the wire.

    Packets are admitted by :meth:`PlbDispatcher.dispatch
    <repro.core.plb.dispatch.PlbDispatcher.dispatch>`, which reserves the
    PSN and queues the reorder info itself.

    Its snapshot is the drained, pointer-only form: epoch, each queue's
    PSN window and the stats.  In-flight packets cannot serialize, so
    :meth:`checkpoint` refuses an engine that holds any.
    """

    STATE = ("epoch", ("queues", "_queues"), "stats")

    def __init__(self, sim, config, transmit_fn, deparser=None):
        self.sim = sim
        self.config = config
        self.transmit_fn = transmit_fn
        deparser_ns, self._deparser_fn = deparser or (0, None)
        if deparser_ns < 0:
            raise ValueError(f"deparser delay must be >= 0, got {deparser_ns}")
        self._deparser_ns = int(deparser_ns)
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
    # Egress side (called by the NIC TX path)
    # ------------------------------------------------------------------

    def writeback(self, packet):
        """A packet returned from the CPU via a TX data queue.

        Runs the legal check; valid packets land in BUF, invalid
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
            self._transmit_best_effort(packet)
            return
        ordq = meta.ordq
        queue = self._queues[ordq]
        fifo = queue.fifo
        psn = meta.psn
        slot = psn & 0xFFF
        if fifo and fifo[0][0] == psn and not meta.drop and queue.buf[slot] is None:
            # The FIFO head itself, live, into an empty slot: the legal
            # check, the BUF store and the drain's reload of the
            # slot would release it in order (case 4), so it leaves now.
            if self._sanitizer is not None:
                self._check_release_order(ordq, queue, psn)
            fifo.popleft()
            queue.head_ptr = psn + 1
            self.stats.in_order += 1
            sim = self.sim
            deparser_fn = self._deparser_fn
            if deparser_fn is None:
                self.transmit_fn(packet, _IN_ORDER)
            else:
                sim.push((sim._now + self._deparser_ns, sim.next_seq(), deparser_fn,
                          (packet, _IN_ORDER), None))
            # What follows is the drain's, unless the new head is still at
            # the CPU and not yet due (case 2): then only the timer moves,
            # as _arm_timeout would move it.
            event = queue.timeout_event
            if fifo:
                head_psn, enqueue_ns = fifo[0]
                timeout_ns = self.config.timeout_ns
                if (queue.buf[head_psn & 0xFFF] is not None
                        or sim._now - enqueue_ns >= timeout_ns):
                    self._drain(ordq, queue)
                elif event is not None:
                    # ``Simulator.rearm``'s pending path, in this frame: a
                    # held timer is pending here (a fired one is re-armed or
                    # dropped before its handler returns), and the new head
                    # is no older than the one it was armed for, so its
                    # deadline only moves later.
                    event.time = enqueue_ns + timeout_ns
                    event.seq = sim.next_seq()
                else:
                    queue.timeout_event = sim.schedule(
                        enqueue_ns + timeout_ns - sim._now, self._on_timeout, ordq
                    )
            elif event is not None:
                event.cancel()
                queue.timeout_event = None
            return

        # Legal check: is psn12 within the FIFO's [head, tail) window, mod
        # 4096?  Only the low 12 bits are compared, exactly as in the
        # hardware; a very stale packet can alias into the window (caught
        # later by the reorder check's PSN comparison, case 3).
        outstanding = len(fifo)
        if outstanding == 0 or (slot - (queue.head_ptr & 0xFFF)) & 0xFFF >= outstanding:
            # Timed-out packet whose slot has already been released.
            self._transmit_best_effort(packet)
            self._drain(ordq, queue)
            return

        resident = queue.buf[slot]
        if resident is not None:
            # Extremely late duplicate writeback into an occupied slot:
            # forward the resident best-effort and take the slot over.
            self.stats.stale_writebacks += 1
            self._transmit_best_effort(resident)
        queue.buf[slot] = packet
        # A set drop flag (the CPU deliberately dropped this packet) is
        # honoured by the drain: the slot is reclaimed the moment the
        # packet reaches the head -- immediately, if it is the head.
        self._drain(ordq, queue)

    def reset(self):
        """FPGA watchdog pipeline reset: drop all in-flight reorder state.

        FIFOs and BUF are cleared, PSN generators rewind to 0 and
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
            if queue.fifo or any(queue.buf):
                raise ValueError(
                    f"cannot checkpoint reorder engine: queue {ordq} has "
                    f"in-flight packets (drain the pod first)"
                )
        return super().checkpoint()

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
        for queue in self._queues:
            if queue.fifo or any(queue.buf):
                raise ValueError("cannot restore into a non-empty reorder engine")
            if queue.timeout_event is not None:
                queue.timeout_event.cancel()
                queue.timeout_event = None
        super().restore(snapshot)

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
        stats = self.stats
        while fifo:
            head_psn, enqueue_ns = fifo[0]
            slot = head_psn & 0xFFF
            packet = buf[slot]
            if packet is None:
                if self.sim._now - enqueue_ns >= self.config.timeout_ns:
                    # Case 1: head timed out; release it unfulfilled.
                    fifo.popleft()
                    queue.head_ptr = head_psn + 1
                    stats.timeout_releases += 1
                    stats.hol_events += 1
                    continue
                break  # Case 2: keep waiting for the CPU.
            meta = packet.meta
            if meta.psn != head_psn:
                # Case 3: a stale (timed-out) packet passed the legal check.
                stats.stale_writebacks += 1
                buf[slot] = None
                self._transmit_best_effort(packet)
                continue  # head still waits for its real packet
            # Case 4: in-order transmission (or drop-flag release).
            if self._sanitizer is not None:
                self._check_release_order(ordq, queue, head_psn)
            fifo.popleft()
            queue.head_ptr = head_psn + 1
            buf[slot] = None
            if meta.drop:
                stats.drop_flag_releases += 1
                self.transmit_fn(packet, _RELEASED_DROP_FLAG)
            else:
                stats.in_order += 1
                self._release(packet, _IN_ORDER)
        self._arm_timeout(ordq, queue)

    def _check_release_order(self, ordq, queue, psn):
        """Sanitizer: an in-order release carries exactly the head pointer.

        Flows hash onto one order queue and the head pointer only ever
        steps by one (a watchdog reset rewinds it with the PSN generator),
        so a release that carries exactly the head pointer implies
        per-flow order on the wire.
        """
        self._sanitizer.ensure(
            psn == queue.head_ptr, "reorder-release-order",
            f"order queue {ordq} released PSN {psn} in order "
            f"with its head pointer at {queue.head_ptr}",
            ordq=ordq, psn=psn, head_ptr=queue.head_ptr, epoch=self.epoch,
        )

    def _release(self, packet, outcome):
        """A packet leaves for the wire: the deparser hop, or ``transmit_fn``."""
        deparser_fn = self._deparser_fn
        if deparser_fn is None:
            self.transmit_fn(packet, outcome)
        else:
            sim = self.sim
            sim.push((sim._now + self._deparser_ns, sim.next_seq(), deparser_fn,
                      (packet, outcome), None))

    def _arm_timeout(self, ordq, queue):
        """Point the queue's timeout event at the current head's deadline.

        Head deadlines only move later (FIFO ``enqueue_ns`` is monotone, a past
        deadline clamps to now), so a pending event moves in place, as
        ``Simulator.rearm``'s pending path moves it, in this frame; a fired
        one (this is its own handler's drain) is queued again through
        ``rearm``: a queue allocates a timer only when its FIFO fills from
        empty.
        """
        event = queue.timeout_event
        if not queue.fifo:
            if event is not None:
                event.cancel()
                queue.timeout_event = None
            return
        sim = self.sim
        delay = queue.fifo[0][1] + self.config.timeout_ns - sim._now
        if delay < 0:
            delay = 0
        if event is None:
            queue.timeout_event = sim.schedule(delay, self._on_timeout, ordq)
        elif event.fired:
            sim.rearm(event, delay)
        else:
            event.time = sim._now + delay
            event.seq = sim.next_seq()

    def _on_timeout(self, ordq):
        # The fired handle stays: the drain's _arm_timeout re-arms or drops it.
        queue = self._queues[ordq]
        self._drain(ordq, queue)

    def _transmit_best_effort(self, packet):
        if packet.meta is not None and packet.meta.drop:
            # Late drop notification: nothing to send, nothing to release.
            self.stats.drop_flag_releases += 1
            return
        self.stats.best_effort += 1
        self._release(packet, _BEST_EFFORT)
