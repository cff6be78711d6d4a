"""The assembled FPGA NIC pipeline for one GW pod (Fig. 1, Fig. 3).

Ingress: ``pkt_dir`` classification -> overload rate limiting -> PLB spray
(or RSS pinning) -> DMA to the pod's RX data queues.

Egress: CPU completion -> DMA back -> legal check -> reorder check ->
deparser -> wire.  Explicit CPU drops take the active-drop-flag shortcut
so reorder resources are released immediately.

Per-module latencies come from Tab. 4 via
:func:`~repro.core.resources.rx_ns` and
:func:`~repro.core.resources.module_ns`.
"""

from repro.analysis.sanitizer import get_sanitizer
from repro.controlplane.snapshot import Stateful
from repro.core.offload import FAST_PATH_LATENCY_NS
from repro.core.pktdir import DeliveryPath, PktDir
from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine
from repro.core.priority import PriorityQueueManager
from repro.core.ratelimit import RateLimitDecision
from repro.core.resources import module_ns, rx_ns
from repro.core.rss import RssDispatcher
from repro.cpu.core import Verdict
from repro.metrics.counters import CounterSet
from repro.packet.packet import PacketKind

# Enum members the per-packet path compares against, bound once: loading a
# member through its class goes through ``EnumType.__getattr__``'s slot.
_DATA = PacketKind.DATA
_PLB = DeliveryPath.PLB
_FORWARD = Verdict.FORWARD
_DROP_SILENT = Verdict.DROP_SILENT

#: Limiter decision -> the drop reason it names, ``None`` for a pass: one
#: lookup per packet instead of ``allowed``, ``Enum.value`` and an f-string.
_LIMITER_DROPS = {
    decision: None if decision.allowed else f"rate_limit_{decision.value}"
    for decision in RateLimitDecision
}


class NicPipeline(Stateful):
    """One GW pod's NIC data path.

    Parameters:
        sim: the simulator.
        cores: the pod's data cores (``CpuCore``), RX-queue order.
        reorder: the :class:`~repro.core.plb.reorder.ReorderQueueConfig`
            sizing the pod's reorder queues.
        egress_fn: called as ``egress_fn(packet, outcome)`` when a packet
            hits the wire (outcome is a
            :class:`~repro.core.plb.reorder.TxOutcome`, ``"rss"`` or
            ``"fpga_fast_path"``).
        mode: ``"plb"`` or ``"rss"``, the default data path; a fallback
            switches :attr:`mode` at run time.
        rate_limiter: optional overload limiter (``admit(vni, now_ns)``).
        session_offload: optional FPGA session fast path (§7,
            :class:`~repro.core.offload.FpgaSessionOffload`).
        drop_flag_enabled: whether CPU ACL drops release their reorder
            slot through the active drop flag.
        drop_fn: optional; called as ``drop_fn(packet)`` once
            :meth:`_drop` has named, counted and settled a terminal drop.

    Both come from the pod's :class:`~repro.scenarios.PodSpec`.  They are
    read per packet, not bound, because a fault scenario swaps the limiter
    mid-run and tests hand-build pipelines; ``priority.deliver_fn``, the
    one hook for protocol packets, is assigned after construction.  The
    pod's cores must have been constructed with this
    pipeline's :meth:`on_cpu_completion` as their completion callback (the
    :mod:`~repro.core.gateway` runtime wires this up).  The RX DMA hop
    delivers straight to ``core.enqueue``, so the pipeline wires each
    core's ``overflow_fn`` to :meth:`on_rx_overflow` itself.

    A snapshot requires a quiescent pod: the reorder engine refuses to
    checkpoint non-drained queues, and the control plane is responsible
    for having emptied the core RX rings first.
    """

    STATE = (
        "mode", "counters", "reorder", ("dispatch", "plb"), "rss",
        ("limiter", "rate_limiter"), ("offload", "session_offload"), "pkt_dir",
        "priority", ("fpga_stalled", "_fpga_stalled"), ("heartbeat", "_heartbeat"),
    )
    DERIVED = {
        "pod_crashed": "the pod's container state, captured by GwPodRuntime.crashed",
        "_counts": "the hot path's binding of counters.counts, captured under counters",
    }

    def __init__(self, sim, cores, reorder, egress_fn, mode="plb",
                 rate_limiter=None, session_offload=None, drop_flag_enabled=True,
                 drop_fn=None):
        self.sim = sim
        self.cores = list(cores)
        self.egress_fn = egress_fn
        self.drop_fn = drop_fn
        self.drop_flag_enabled = drop_flag_enabled
        self.counters = CounterSet()
        self.pkt_dir = PktDir()
        self.mode = mode
        self._rx_latency_ns = rx_ns()
        self._tx_dma_ns = module_ns("dma", "tx")
        self._tx_post_reorder_ns = module_ns("plb", "tx") + module_ns(
            "basic_pipeline", "tx"
        )
        # In-order and best-effort releases post the deparser hop
        # themselves; only drop-flag releases come back.
        self.reorder = ReorderEngine(
            sim, reorder, self._on_reorder_transmit,
            deparser=(self._tx_post_reorder_ns, self._transmit),
        )
        self.plb = PlbDispatcher(self.cores, self.reorder)
        self.rss = RssDispatcher(self.cores)
        self.rate_limiter = rate_limiter
        self.session_offload = session_offload
        self.priority = PriorityQueueManager(sim)
        self._fpga_stalled = False
        # The pod's container state, owned and captured by the pod
        # (GwPodRuntime.crash/checkpoint): a crashed pod blackholes here.
        self.pod_crashed = False
        self._heartbeat = 0
        self._sanitizer = get_sanitizer()
        # Hot-path bindings: these objects never change over the pipeline's
        # lifetime (unlike egress_fn/rate_limiter/session_offload, which
        # tests and a fault scenario swap, so they are read per call).
        # ``_counts`` is the counter set's own dict (restore refills it in
        # place): the per-packet counters are bumped on it directly.  The
        # RX and TX DMA hops queue with ``sim.push`` (their delays are
        # constant ints), the rare hops with ``sim.post``; they read
        # ``sim.next_seq`` per call, since restoring ``sim.seq`` rebinds it.
        self._post = sim.post
        self._push = sim.push
        self._writeback = self.reorder.writeback
        for core in self.cores:
            core.overflow_fn = self.on_rx_overflow
        self._incr = self.counters.incr
        self._counts = self.counters.counts
        self._plb_dispatch = self.plb.dispatch
        self._rss_dispatch = self.rss.dispatch

    #: Counters that settle a packet's fate.  Every packet counted by
    #: ``rx_packets`` ends up in exactly one of these, so
    #: ``rx_packets - sum(terminal)`` is the number still in flight.
    #: Deliberately absent: ``dispatched`` and ``offload_fast_path`` (the
    #: packet is still moving; it settles at ``tx_packets``),
    #: ``reorder_drop_flag`` (already settled at ``cpu_acl_drops``; the
    #: flag release only reclaims reorder resources) and
    #: ``pod_crashed_drops`` (counted *instead of* ``rx_packets``, not
    #: after it).
    TERMINAL_COUNTERS = (
        "tx_packets",
        "fpga_stall_drops",
        "rx_priority",
        "rate_limited_drops",
        "reorder_fifo_drops",
        "rx_queue_drops",
        "cpu_silent_drops",
        "cpu_acl_drops",
    )

    #: ``Packet.drop_reason`` -> the counter that accounts for the drop,
    #: for every reason a data packet can die of inside a pod
    #: (``pod_crashed`` is counted before ``rx_packets``, see :meth:`ingress`).
    DROP_COUNTERS = {
        "fpga_stall": "fpga_stall_drops",
        "rate_limit_drop_meter": "rate_limited_drops",
        "rate_limit_drop_pre": "rate_limited_drops",
        "no_available_core": "reorder_fifo_drops",
        "reorder_fifo_full": "reorder_fifo_drops",
        "rx_queue_overflow": "rx_queue_drops",
        "cpu_silent": "cpu_silent_drops",
        "cpu_acl": "cpu_acl_drops",
        "pod_crashed": "pod_crashed_drops",
    }

    def in_flight(self):
        """Data-plane packets inside the pipeline right now.

        Pure counter arithmetic: the control plane reads it to decide
        when a draining pod has gone quiet, and under a sanitizer every
        settle point asserts it has not gone negative.
        """
        counters = self.counters
        settled = sum(counters.get(name) for name in self.TERMINAL_COUNTERS)
        return counters.get("rx_packets") - settled

    def _check_conserved(self, packet, stage):
        """Sanitizer: ``stage`` just bumped a terminal counter for
        ``packet``; more packets settled than entered means one settled
        twice (or never came through :meth:`ingress`)."""
        in_flight = self.in_flight()
        self._sanitizer.ensure(
            in_flight >= 0, "packet-conservation",
            f"terminal counters exceed rx_packets by {-in_flight} "
            f"(stage {stage!r})",
            uid=packet.uid, stage=stage,
        )

    def _drop(self, packet, reason):
        """The one terminal-drop point: name the drop on the packet, bump
        the counter that accounts for it and tell the pod -- a drop site
        cannot do half of it."""
        packet.drop_reason = reason
        counts = self._counts
        counter = self.DROP_COUNTERS[reason]
        try:
            counts[counter] += 1
        except KeyError:
            counts[counter] = 1
        if self._sanitizer is not None:
            self._check_conserved(packet, reason)
        if self.drop_fn is not None:
            self.drop_fn(packet)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def ingress(self, packet):
        """A packet arrives from the wire at the current sim time.

        This is the pod's ingress (``GwPodRuntime.ingress``), so a crashed
        pod's blackhole is checked first: such a packet is counted in
        ``pod_crashed_drops`` *instead of* ``rx_packets``, unstamped.
        """
        if self.pod_crashed:
            # The container is gone; anything still routed here blackholes
            # until BGP converges away from the dead pod.
            self._drop(packet, "pod_crashed")
            return
        counts = self._counts
        now = self.sim._now
        packet.arrival_ns = now
        try:
            counts["rx_packets"] += 1
        except KeyError:
            counts["rx_packets"] = 1
        if self._fpga_stalled:
            # A stalled pipeline makes no forward progress; the wire keeps
            # delivering and the packets are simply lost.
            self._drop(packet, "fpga_stall")
            return
        pkt_dir = self.pkt_dir
        if packet.kind is not _DATA:
            # Protocol traffic: the priority path skips the rate limiter
            # and PLB entirely.
            pkt_dir.classify(packet)
            self._post(self._rx_latency_ns, self.priority.enqueue, packet)
            self._incr("rx_priority")
            if self._sanitizer is not None:
                self._check_conserved(packet, "priority_handoff")
            return
        # A data packet takes the default data path, exactly as
        # PktDir.classify would classify and count it (inline: per packet).
        path = pkt_dir.default_data_path
        pkt_dir.classified[path] += 1

        limiter = self.rate_limiter
        if limiter is not None:
            reason = _LIMITER_DROPS[limiter.admit(packet.vni, now)]
            if reason is not None:
                self._drop(packet, reason)
                return

        if self.session_offload is not None and self.session_offload.lookup(
            packet.flow
        ):
            # FPGA fast path: established session, CPU never sees it.
            self._incr("offload_fast_path")
            self._post(
                FAST_PATH_LATENCY_NS, self._transmit, packet, "fpga_fast_path"
            )
            return

        if path is _PLB:
            core = self._plb_dispatch(packet)
            if core is None:
                # The dispatcher already said why (FIFO full, no core).
                self._drop(packet, packet.drop_reason)
                return
        else:
            core = self._rss_dispatch(packet)
        try:
            counts["dispatched"] += 1
        except KeyError:
            counts["dispatched"] = 1
        self._push((now + self._rx_latency_ns, self.sim.next_seq(), core.enqueue,
                    (packet,), None))

    def on_rx_overflow(self, packet):
        """Wired as every data core's RX-overflow callback: silent driver
        loss, the NIC is never told.  For PLB packets this leaves a hole
        in the reorder FIFO -> HOL until timeout."""
        self._drop(packet, "rx_queue_overflow")

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------

    def on_cpu_completion(self, packet, verdict, core):
        """Wired as every data core's completion callback."""
        if verdict is not _FORWARD:
            if verdict is _DROP_SILENT:
                self._drop(packet, "cpu_silent")
                return
            # Terminal here: the later drop-flag release only reclaims
            # reorder resources, it must not settle the packet again.
            self._drop(packet, "cpu_acl")
            if packet.meta is not None and self.drop_flag_enabled:
                # Active drop flag: notify the NIC so reorder resources are
                # released without waiting for the 100 us timeout.
                self._post(self._tx_dma_ns, self.reorder.notify_drop, packet)
            # Without the flag (or under RSS) the drop is invisible to the
            # NIC -- PLB pays for it with head-of-line blocking.
            return
        if self.session_offload is not None:
            # Slow path forwarded a packet: maybe install the session.
            self.session_offload.note_cpu_packet(packet.flow)
        if packet.meta is not None:
            self._push((self.sim._now + self._tx_dma_ns, self.sim.next_seq(),
                        self._writeback, (packet,), None))
        else:
            # RSS path: no reordering, straight to the deparser.
            self._post(
                self._tx_dma_ns + self._tx_post_reorder_ns, self._transmit, packet, "rss"
            )

    def _on_reorder_transmit(self, packet, outcome):
        """The reorder engine's exit for drop-flag releases, the one
        outcome that never reaches the wire (its releases post
        :meth:`_transmit`, the deparser hop, directly).  The packet was
        dropped at the CPU ACL verdict; this only reclaims the slot."""
        self._incr("reorder_drop_flag")

    def _transmit(self, packet, outcome):
        counts = self._counts
        try:
            counts["tx_packets"] += 1
        except KeyError:
            counts["tx_packets"] = 1
        if self._sanitizer is not None:
            self._sanitizer.ensure(
                packet.departure_ns is None, "packet-conservation",
                f"packet transmitted twice (first at t={packet.departure_ns})",
                uid=packet.uid, outcome=str(outcome),
            )
            self._sanitizer.ensure(
                packet.drop_reason is None, "packet-conservation",
                f"dropped packet leaked to the wire "
                f"(drop_reason={packet.drop_reason!r})",
                uid=packet.uid, outcome=str(outcome),
            )
            self._check_conserved(packet, "tx")
        packet.departure_ns = self.sim._now
        self.egress_fn(packet, outcome)

    # ------------------------------------------------------------------
    # Control operations
    # ------------------------------------------------------------------

    @property
    def mode(self):
        """``"plb"`` or ``"rss"``: the default data path ``pkt_dir`` holds."""
        return self.pkt_dir.default_data_path.value

    @mode.setter
    def mode(self, mode):
        self.pkt_dir.set_default_data_path(DeliveryPath(mode))

    def fallback_to_rss(self):
        """§4.1 remediation 5: dynamically switch the pod from PLB to RSS."""
        self.mode = "rss"
        self.counters.incr("plb_fallbacks")

    def restore_plb(self):
        self.mode = "plb"

    # ------------------------------------------------------------------
    # FPGA fault hooks
    # ------------------------------------------------------------------

    @property
    def fpga_stalled(self):
        return self._fpga_stalled

    def set_fpga_stalled(self, stalled=True):
        """Fault injection: freeze (or unfreeze) the FPGA pipeline."""
        self._fpga_stalled = bool(stalled)

    def heartbeat(self):
        """Liveness beacon polled by the FPGA watchdog.

        A healthy pipeline advances the counter on every poll; a stalled
        one returns the same value, which is how the watchdog detects it.
        """
        if not self._fpga_stalled:
            self._heartbeat += 1
        return self._heartbeat

    def recover_fpga(self):
        """Watchdog remediation: unstall and reset the pipeline.

        The reset drops all in-flight reorder state (§4.1: the watchdog
        reset is a full pipeline reload); in-flight packets surface later
        as stale-epoch writebacks and leave best-effort.  Returns the
        number of in-flight packets whose reorder state was dropped.
        """
        self._fpga_stalled = False
        dropped = self.reorder.reset()
        self.counters.incr("fpga_resets")
        self.counters.incr("fpga_reset_inflight_drops", dropped)
        return dropped
