"""A gateway data core.

Each data core owns one RX queue (its slice of the pod's VF queues) and
processes packets one at a time; the per-packet service time comes from a
:class:`~repro.cpu.service.ServiceChain` plus optional jitter.  When
processing finishes, the verdict callback hands the packet back to the NIC
pipeline's TX path (or records an explicit drop, which PLB's active drop
flag turns into an immediate reorder-resource release).
"""

import enum

from repro.analysis.sanitizer import get_sanitizer


class Verdict(enum.Enum):
    """Outcome of CPU processing for one packet."""

    FORWARD = "forward"
    DROP_ACL = "drop_acl"          # explicit drop: ACL / rate-limit rule hit
    DROP_SILENT = "drop_silent"    # driver-level loss: NIC never learns


# Bound once: a member loaded through its Enum class pays
# ``EnumType.__getattr__``'s slot on every packet.
_FORWARD = Verdict.FORWARD


class CoreStats:
    """Counters and busy-time accounting for one core."""

    __slots__ = ("processed", "forwarded", "dropped", "busy_ns", "stall_ns")

    def __init__(self):
        self.processed = 0
        self.forwarded = 0
        self.dropped = 0
        self.busy_ns = 0
        self.stall_ns = 0

    def checkpoint(self):
        """Plain-data snapshot (slot order is the declaration order)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def restore(self, snapshot):
        for slot in self.__slots__:
            setattr(self, slot, snapshot[slot])

    def utilization(self, window_ns):
        """Busy fraction over a window (may exceed 1.0 if overloaded)."""
        if window_ns <= 0:
            return 0.0
        return self.busy_ns / window_ns


class CpuCore:
    """One data core: RX queue + run-to-completion packet processing.

    Parameters:
        sim: the :class:`~repro.sim.Simulator`.
        core_id: globally unique id.
        chain: a :class:`~repro.cpu.service.ServiceChain` (or anything with
            ``service_time_ns(packet)``).  A chain whose
            ``fixed_service_ns`` is set (an analytic-mode ``ServiceChain``)
            is not called per packet: the core reads the constant.
        completion_fn: called as ``completion_fn(packet, verdict, core)``
            when processing finishes.
        verdict_fn: optional; called per packet to decide the verdict
            (defaults to always FORWARD).  This is where ACL-drop workloads
            plug in.
        jitter: optional :class:`~repro.cpu.service.JitterModel`.
        rx_capacity: RX descriptor ring size.
        speed_factor: scales service time (cross-NUMA penalty uses >1).

    ``overflow_fn``, ``None`` until the NIC pipeline wires its drop there,
    is called as ``overflow_fn(packet)`` when :meth:`enqueue` finds the RX
    ring full.
    """

    def __init__(
        self,
        sim,
        core_id,
        chain,
        completion_fn,
        verdict_fn=None,
        jitter=None,
        rx_capacity=1024,
        speed_factor=1.0,
    ):
        from repro.cpu.queues import PacketQueue

        self.sim = sim
        self.core_id = core_id
        self.chain = chain
        self.completion_fn = completion_fn
        self.overflow_fn = None
        self.verdict_fn = verdict_fn
        self.jitter = jitter
        self.speed_factor = speed_factor
        self.rx_queue = PacketQueue(rx_capacity, name=f"core{core_id}-rx")
        self.stats = CoreStats()
        self._sanitizer = get_sanitizer()
        self._busy = False
        self._pending_stall_ns = 0
        self._failed = False
        self._resume_event = None
        # Hot-path bindings: the RX ring and the chain never change over
        # the core's life.
        self._rx_packets = self.rx_queue.packets
        self._rx_push = self.rx_queue.push
        self._rx_pop = self.rx_queue.pop
        self._fixed_service_ns = getattr(chain, "fixed_service_ns", None)

    @property
    def busy(self):
        return self._busy

    @property
    def rx_dropped(self):
        """Packets lost to RX overflow (silent loss: the NIC is not told)."""
        return self.rx_queue.dropped

    def enqueue(self, packet):
        """Deliver a packet to this core's RX queue.

        Returns True if accepted; False means silent driver loss, which is
        exactly the loss mode that creates reorder-FIFO head-of-line
        blocking (§4.1), and is handed to ``overflow_fn`` when one is set.

        A core idles only once its ring is empty, so an idle, healthy core
        serves the packet at once: the ring's counters end where ``push`` +
        ``pop`` would leave them (an empty ring always has room), without
        the round trip.
        """
        if self._busy or self._failed:
            accepted = self._rx_push(packet)
            if self._sanitizer is not None:
                self._check_ring_bound()
            if not accepted and self.overflow_fn is not None:
                self.overflow_fn(packet)
            return accepted
        rx_queue = self.rx_queue
        rx_queue.enqueued += 1
        if not rx_queue.high_watermark:
            rx_queue.high_watermark = 1
        if self._sanitizer is not None:
            self._check_ring_bound()
        self._serve(packet)
        return True

    def _check_ring_bound(self):
        """Sanitizer: the RX ring never holds more than its size."""
        rx_queue = self.rx_queue
        self._sanitizer.ensure(
            len(rx_queue) <= rx_queue.capacity,
            "finite-queue-bound",
            f"core {self.core_id} RX queue holds {len(rx_queue)} "
            f"packets, ring size is {rx_queue.capacity}",
            core=self.core_id, occupancy=len(rx_queue),
            capacity=rx_queue.capacity,
        )

    def inject_stall(self, duration_ns):
        """Stall the core before its next packet (NUMA balancing, IRQs)."""
        self._pending_stall_ns += int(duration_ns)
        self.stats.stall_ns += int(duration_ns)

    def fail(self, duration_ns=None):
        """Take the core offline (fault injection).

        A failed core finishes its in-flight packet (run-to-completion)
        but starts no new ones; its RX queue keeps accepting packets and
        backs up, which is exactly the behaviour that produces RSS
        head-of-line blocking while PLB sprays around the dead core.
        With ``duration_ns`` the core auto-recovers; otherwise it stays
        down until :meth:`restore`.
        """
        self._failed = True
        if self._resume_event is not None:
            self._resume_event.cancel()
            self._resume_event = None
        if duration_ns is not None:
            self.stats.stall_ns += int(duration_ns)
            self._resume_event = self.sim.schedule(int(duration_ns), self.restore)

    def restore(self):
        """Bring a failed core back; drains whatever queued while down."""
        self._failed = False
        if self._resume_event is not None:
            self._resume_event.cancel()
            self._resume_event = None
        if not self._busy:
            self._start_next()

    def _start_next(self):
        """Serve the ring's oldest packet, or go idle (failed, or nothing queued)."""
        packet = None if self._failed else self._rx_pop()
        if packet is None:
            self._busy = False
        else:
            self._serve(packet)

    def _serve(self, packet):
        self._busy = True
        packet.cpu_start_ns = self.sim._now
        service_ns = self._fixed_service_ns
        if service_ns is None:
            service_ns = self.chain.service_time_ns(packet)
        jitter = self.jitter
        if jitter is not None:
            service_ns += jitter.draw_ns()
        factor = self.speed_factor
        if factor != 1.0:
            service_ns = int(service_ns * factor)
        elif service_ns.__class__ is not int:
            # A unit speed factor never changes the value: skip the float
            # multiply and only coerce non-integer custom service times.
            service_ns = int(service_ns)
        if self._pending_stall_ns:
            service_ns += self._pending_stall_ns
            self._pending_stall_ns = 0
        if self._sanitizer is not None:
            self._sanitizer.ensure(
                service_ns >= 0, "event-causality",
                f"core {self.core_id} computed a negative service time "
                f"({service_ns} ns); jitter must not outrun the base cost",
                core=self.core_id, service_ns=service_ns,
            )
        self.stats.busy_ns += service_ns
        sim = self.sim
        if service_ns < 0:
            # ``post`` refuses it: SimulationError, or ``event-causality``.
            sim.post(service_ns, self._finish, packet)
        sim.push((sim._now + service_ns, sim.next_seq(), self._finish, (packet,), None))

    def _finish(self, packet):
        packet.cpu_done_ns = self.sim._now
        stats = self.stats
        stats.processed += 1
        verdict_fn = self.verdict_fn
        verdict = verdict_fn(packet) if verdict_fn is not None else _FORWARD
        if verdict is _FORWARD:
            stats.forwarded += 1
        else:
            stats.dropped += 1
        self.completion_fn(packet, verdict, self)
        if self._rx_packets:
            self._start_next()
        else:
            self._busy = False
