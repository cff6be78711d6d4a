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
        core_id: globally unique id (used by the mempool model).
        chain: a :class:`~repro.cpu.service.ServiceChain` (or anything with
            ``service_time_ns(packet)``).
        completion_fn: called as ``completion_fn(packet, verdict, core)``
            when processing finishes.
        verdict_fn: optional; called per packet to decide the verdict
            (defaults to always FORWARD).  This is where ACL-drop workloads
            plug in.
        jitter: optional :class:`~repro.cpu.service.JitterModel`.
        rx_capacity: RX descriptor ring size.
        speed_factor: scales service time (cross-NUMA penalty uses >1).
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
        # Hot-path bindings: the RX ring never changes over the core's life.
        self._rx_push = self.rx_queue.push
        self._rx_pop = self.rx_queue.pop

    @property
    def busy(self):
        return self._busy

    @property
    def available(self):
        """False while the core is failed/offline (fault injection)."""
        return not self._failed

    @property
    def rx_dropped(self):
        """Packets lost to RX overflow (silent loss: the NIC is not told)."""
        return self.rx_queue.dropped

    def enqueue(self, packet):
        """Deliver a packet to this core's RX queue.

        Returns True if accepted; False means silent driver loss, which is
        exactly the loss mode that creates reorder-FIFO head-of-line
        blocking (§4.1).
        """
        accepted = self._rx_push(packet)
        if self._sanitizer is not None:
            self._sanitizer.ensure(
                len(self.rx_queue) <= self.rx_queue.capacity,
                "finite-queue-bound",
                f"core {self.core_id} RX queue holds {len(self.rx_queue)} "
                f"packets, ring size is {self.rx_queue.capacity}",
                core=self.core_id, occupancy=len(self.rx_queue),
                capacity=self.rx_queue.capacity,
            )
        if accepted and not self._busy:
            self._start_next()
        return accepted

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
        if self._failed:
            self._busy = False
            return
        packet = self._rx_pop()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        packet.cpu_start_ns = self.sim._now
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
        self.sim.post(service_ns, self._finish, packet)

    def _finish(self, packet):
        packet.cpu_done_ns = self.sim._now
        stats = self.stats
        stats.processed += 1
        verdict_fn = self.verdict_fn
        verdict = verdict_fn(packet) if verdict_fn is not None else Verdict.FORWARD
        if verdict is Verdict.FORWARD:
            stats.forwarded += 1
        else:
            stats.dropped += 1
        self.completion_fn(packet, verdict, self)
        self._start_next()
