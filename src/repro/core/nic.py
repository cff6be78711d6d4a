"""The assembled FPGA NIC pipeline for one GW pod (Fig. 1, Fig. 3).

Ingress: ``pkt_dir`` classification -> overload rate limiting -> PLB spray
(or RSS pinning) -> DMA to the pod's RX data queues.

Egress: CPU completion -> DMA back -> legal check -> reorder check ->
deparser -> wire.  Explicit CPU drops take the active-drop-flag shortcut
so reorder resources are released immediately.

Per-module latencies come from Tab. 4 via
:class:`~repro.core.resources.NicLatencyModel`.
"""

from dataclasses import dataclass, field

from repro.analysis.sanitizer import get_sanitizer
from repro.core.meta import MetaPlacement, placement_throughput_factor
from repro.core.offload import FAST_PATH_LATENCY_NS
from repro.core.pktdir import DeliveryPath, PktDir
from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig, TxOutcome
from repro.core.priority import PriorityQueueManager
from repro.core.resources import NicLatencyModel
from repro.core.rss import RssDispatcher
from repro.cpu.core import Verdict
from repro.metrics.counters import CounterSet


@dataclass(eq=False)
class NicPipelineConfig:
    """Configuration for one pod's slice of the NIC pipeline."""

    mode: str = "plb"
    reorder: ReorderQueueConfig = field(default_factory=ReorderQueueConfig)
    rate_limiter: object = None
    drop_flag_enabled: bool = True
    header_only: bool = False
    meta_placement: MetaPlacement = MetaPlacement.TAIL
    latency_model: NicLatencyModel = field(default_factory=NicLatencyModel)
    # Optional FpgaSessionOffload (§7 roadmap): established sessions
    # are forwarded entirely on the FPGA fast path.
    session_offload: object = None
    # Optional PcieLinkModel: accounts FPGA<->CPU bytes, honouring
    # header-payload-split mode (appendix A).
    pcie_link: object = None

    def __post_init__(self):
        if self.mode not in ("plb", "rss"):
            raise ValueError(f"mode must be 'plb' or 'rss': {self.mode!r}")


class NicPipeline:
    """One GW pod's NIC data path.

    Parameters:
        sim: the simulator.
        cores: the pod's data cores (``CpuCore``), RX-queue order.
        config: a :class:`NicPipelineConfig`.
        egress_fn: called as ``egress_fn(packet, outcome)`` when a packet
            hits the wire (outcome is a
            :class:`~repro.core.plb.reorder.TxOutcome`, ``"rss"`` or
            ``"fpga_fast_path"``).
        protocol_fn: handler for protocol packets delivered via the
            priority path (defaults to a no-op).
        drop_fn: optional; called as ``drop_fn(packet)`` once
            :meth:`_drop` has named, counted and settled a terminal drop.

    The pod's cores must have been constructed with this pipeline's
    :meth:`on_cpu_completion` as their completion callback (the
    :mod:`~repro.core.gateway` runtime wires this up).
    """

    def __init__(self, sim, cores, config, egress_fn, protocol_fn=None,
                 drop_fn=None):
        self.sim = sim
        self.cores = list(cores)
        self.config = config
        self.egress_fn = egress_fn
        self.drop_fn = drop_fn
        self.counters = CounterSet()
        self.pkt_dir = PktDir(
            DeliveryPath.PLB if config.mode == "plb" else DeliveryPath.RSS
        )
        self.latency = config.latency_model
        self.reorder = ReorderEngine(sim, config.reorder, self._on_reorder_transmit)
        self.plb = PlbDispatcher(self.cores, self.reorder, lambda: sim._now)
        self.rss = RssDispatcher(self.cores)
        self.rate_limiter = config.rate_limiter
        self.session_offload = config.session_offload
        self.pcie_link = config.pcie_link
        self.priority = PriorityQueueManager(
            sim, protocol_fn if protocol_fn is not None else lambda packet: None
        )
        # Meta placement only affects CPU-side throughput; model it as a
        # service-time inflation factor applied by the gateway runtime.
        self.cpu_throughput_factor = placement_throughput_factor(config.meta_placement)
        self._fpga_stalled = False
        self._heartbeat = 0
        self._sanitizer = get_sanitizer()
        self._rx_latency_ns = self.latency.rx_ns()
        self._tx_dma_ns = self.latency.module_ns("dma", "tx")
        self._tx_post_reorder_ns = self.latency.module_ns(
            "plb", "tx"
        ) + self.latency.module_ns("basic_pipeline", "tx")
        # Hot-path bindings: these objects never change over the pipeline's
        # lifetime (unlike egress_fn/rate_limiter/session_offload, which
        # experiments swap post-construction and must be read per call).
        self._post = sim.post
        self._incr = self.counters.incr
        self._classify = self.pkt_dir.classify
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
        "reorder_payload_gone",
    )

    #: ``Packet.drop_reason`` -> the counter that accounts for the drop,
    #: for every reason a data packet can die of inside a pod
    #: (``pod_crashed`` is the pod's own, see ``GwPodRuntime.ingress``).
    DROP_COUNTERS = {
        "fpga_stall": "fpga_stall_drops",
        "rate_limit_drop_meter": "rate_limited_drops",
        "rate_limit_drop_pre": "rate_limited_drops",
        "no_available_core": "reorder_fifo_drops",
        "reorder_fifo_full": "reorder_fifo_drops",
        "rx_queue_overflow": "rx_queue_drops",
        "cpu_silent": "cpu_silent_drops",
        "cpu_acl": "cpu_acl_drops",
        "payload_released": "reorder_payload_gone",
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
        self._incr(self.DROP_COUNTERS[reason])
        if self._sanitizer is not None:
            self._check_conserved(packet, reason)
        if self.drop_fn is not None:
            self.drop_fn(packet)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def ingress(self, packet):
        """A packet arrives from the wire at the current sim time."""
        incr = self._incr
        packet.arrival_ns = self.sim._now
        incr("rx_packets")
        if self._fpga_stalled:
            # A stalled pipeline makes no forward progress; the wire keeps
            # delivering and the packets are simply lost.
            self._drop(packet, "fpga_stall")
            return
        path, header_only = self._classify(packet)

        if path is DeliveryPath.PRIORITY:
            # Priority path skips the rate limiter and PLB entirely.
            self._post(self._rx_latency_ns, self.priority.enqueue, packet)
            incr("rx_priority")
            if self._sanitizer is not None:
                self._check_conserved(packet, "priority_handoff")
            return

        if self.rate_limiter is not None:
            decision = self.rate_limiter.admit(packet.vni, self.sim._now)
            if not decision.allowed:
                self._drop(packet, f"rate_limit_{decision.value}")
                return

        if self.session_offload is not None and self.session_offload.lookup(
            packet.flow
        ):
            # FPGA fast path: established session, CPU never sees it.
            incr("offload_fast_path")
            self._post(
                FAST_PATH_LATENCY_NS, self._transmit, packet, "fpga_fast_path"
            )
            return

        if path is DeliveryPath.PLB:
            core = self._plb_dispatch(
                packet, header_only=header_only or self.config.header_only
            )
            if core is None:
                # The dispatcher already said why (FIFO full, no core).
                self._drop(packet, packet.drop_reason)
                return
        else:
            core = self._rss_dispatch(packet)
        incr("dispatched")
        self._post(self._rx_latency_ns, self._deliver_to_core, packet, core)

    def _deliver_to_core(self, packet, core):
        if self.pcie_link is not None:
            # RX crossing of the FPGA->CPU DMA.
            self.pcie_link.record(packet.size, split=packet.header_only)
        if not core.enqueue(packet):
            # Silent driver loss: the NIC is never told.  For PLB packets
            # this leaves a hole in the reorder FIFO -> HOL until timeout.
            self._drop(packet, "rx_queue_overflow")

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------

    def on_cpu_completion(self, packet, verdict, core):
        """Wired as every data core's completion callback."""
        if verdict is not Verdict.FORWARD:
            if verdict is Verdict.DROP_SILENT:
                self._drop(packet, "cpu_silent")
                return
            # Terminal here: the later drop-flag release only reclaims
            # reorder resources, it must not settle the packet again.
            self._drop(packet, "cpu_acl")
            if packet.meta is not None and self.config.drop_flag_enabled:
                # Active drop flag: notify the NIC so reorder resources are
                # released without waiting for the 100 us timeout.
                self._post(self._tx_dma_ns, self.reorder.notify_drop, packet)
            # Without the flag (or under RSS) the drop is invisible to the
            # NIC -- PLB pays for it with head-of-line blocking.
            return
        if self.session_offload is not None:
            # Slow path forwarded a packet: maybe install the session.
            self.session_offload.note_cpu_packet(packet.flow)
        if self.pcie_link is not None:
            # TX crossing of the CPU->FPGA DMA.
            self.pcie_link.record(packet.size, split=packet.header_only)
        if packet.meta is not None:
            self._post(self._tx_dma_ns, self.reorder.writeback, packet)
        else:
            # RSS path: no reordering, straight to the deparser.
            self._post(
                self._tx_dma_ns + self._tx_post_reorder_ns, self._transmit, packet, "rss"
            )

    def _on_reorder_transmit(self, packet, outcome):
        if outcome is TxOutcome.RELEASED_DROP_FLAG:
            # Dropped at the CPU ACL verdict; this only reclaims the slot.
            self._incr("reorder_drop_flag")
        elif outcome is TxOutcome.DROPPED_PAYLOAD_GONE:
            # The reorder engine already said why (payload released).
            self._drop(packet, packet.drop_reason)
        else:
            self._post(self._tx_post_reorder_ns, self._transmit, packet, outcome)

    def _transmit(self, packet, outcome):
        self._incr("tx_packets")
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
    # Checkpoint / restore (live migration, repro.controlplane)
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Plain-data snapshot of the pipeline's frozen state.

        Preconditions: the pod must be quiescent -- the reorder engine
        refuses to checkpoint non-drained queues, and the control plane
        is responsible for having emptied the core RX rings first.
        """
        return {
            "mode": self.config.mode,
            "counters": self.counters.checkpoint(),
            "reorder": self.reorder.checkpoint(),
            "dispatch": self.plb.checkpoint(),
            "rss": self.rss.checkpoint(),
            "limiter": (
                None if self.rate_limiter is None else self.rate_limiter.checkpoint()
            ),
            "offload": (
                None
                if self.session_offload is None
                else self.session_offload.checkpoint()
            ),
            "pkt_dir": self.pkt_dir.checkpoint(),
            "priority": self.priority.checkpoint(),
            "fpga_stalled": self._fpga_stalled,
            "heartbeat": self._heartbeat,
        }

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint` into this (freshly built) pipeline."""
        if snapshot["mode"] != self.config.mode:
            self.config.mode = snapshot["mode"]
            self.pkt_dir.set_default_data_path(
                DeliveryPath.PLB if snapshot["mode"] == "plb" else DeliveryPath.RSS
            )
        self.counters.restore(snapshot["counters"])
        self.reorder.restore(snapshot["reorder"])
        self.plb.restore(snapshot["dispatch"])
        self.rss.restore(snapshot["rss"])
        if self.rate_limiter is not None and snapshot["limiter"] is not None:
            self.rate_limiter.restore(snapshot["limiter"])
        if self.session_offload is not None and snapshot["offload"] is not None:
            self.session_offload.restore(snapshot["offload"])
        self.pkt_dir.restore(snapshot["pkt_dir"])
        self.priority.restore(snapshot["priority"])
        self._fpga_stalled = snapshot["fpga_stalled"]
        self._heartbeat = snapshot["heartbeat"]

    # ------------------------------------------------------------------
    # Control operations
    # ------------------------------------------------------------------

    def fallback_to_rss(self):
        """§4.1 remediation 5: dynamically switch the pod from PLB to RSS."""
        self.config.mode = "rss"
        self.pkt_dir.set_default_data_path(DeliveryPath.RSS)
        self.counters.incr("plb_fallbacks")

    def restore_plb(self):
        self.config.mode = "plb"
        self.pkt_dir.set_default_data_path(DeliveryPath.PLB)

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
