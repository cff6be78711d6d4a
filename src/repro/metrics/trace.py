"""Per-packet timeline tracing.

Operations tooling: subscribe a :class:`PacketTracer` to a deployment's
packet exits and it keeps each sampled packet's stage timestamps
(ingress, CPU start/finish, wire), read off the stamps the
:class:`~repro.packet.packet.Packet` carries as it leaves.  Used by the
latency-breakdown tests and handy when debugging HOL incidents -- the
same telemetry the paper's team leaned on when chasing the millisecond
code branches.
"""

class PacketTrace:
    """One packet's (stage, timestamp) pairs in order, and why it died."""

    __slots__ = ("uid", "events", "drop_reason")

    def __init__(self, packet):
        self.uid = packet.uid
        stamps = (
            ("ingress", packet.arrival_ns),
            ("cpu_start", packet.cpu_start_ns),
            ("cpu_done", packet.cpu_done_ns),
            ("egress", packet.departure_ns),
        )
        # A stage the packet never reached (dropped first, or an offload
        # fast path that skips the CPU) has no stamp and no event.
        self.events = [(stage, ns) for stage, ns in stamps if ns is not None]
        self.drop_reason = packet.drop_reason

    def stage_time(self, stage):
        """Timestamp recorded for ``stage``, or None."""
        return dict(self.events).get(stage)

    def span_ns(self, first_stage, second_stage):
        """Time between two stages, or None if either is missing."""
        start = self.stage_time(first_stage)
        end = self.stage_time(second_stage)
        if start is None or end is None:
            return None
        return end - start

    @property
    def stages(self):
        return [name for name, _ in self.events]

    def __repr__(self):
        return f"<PacketTrace uid={self.uid} {self.stages}>"


class PacketTracer:
    """An exit subscriber that keeps packet timelines.

    Register it with ``handle.subscribe(tracer)`` (or append it to an
    :class:`~repro.core.gateway.AlbatrossServer`'s ``subscribers``): it
    sees every data packet leaving the deployment, dropped ones included.

    Parameters:
        sample_every: trace every Nth exiting packet (1 = all).
        max_traces: stop collecting after this many packets.
    """

    def __init__(self, sample_every=1, max_traces=10_000):
        self.sample_every = sample_every
        self.max_traces = max_traces
        self.traces = {}
        self._seen = 0

    def __call__(self, packet, where, outcome):
        self._seen += 1
        # (seen - 1) % N: the first packet of every stride is traced, so
        # a run shorter than N packets still collects traces.
        if (
            len(self.traces) < self.max_traces
            and (self._seen - 1) % self.sample_every == 0
        ):
            self.traces[packet.uid] = PacketTrace(packet)

    # -- analysis -----------------------------------------------------------

    def completed_traces(self):
        """Traces that reached the wire."""
        return [
            trace for trace in self.traces.values() if trace.stage_time("egress")
        ]

    def mean_span_ns(self, first_stage, second_stage):
        spans = [
            trace.span_ns(first_stage, second_stage)
            for trace in self.completed_traces()
        ]
        spans = [span for span in spans if span is not None]
        return sum(spans) / len(spans) if spans else None

    def breakdown(self):
        """Mean ns per pipeline segment across completed traces."""
        return {
            "nic_rx_and_queue": self.mean_span_ns("ingress", "cpu_start"),
            "cpu_service": self.mean_span_ns("cpu_start", "cpu_done"),
            "nic_tx_and_reorder": self.mean_span_ns("cpu_done", "egress"),
            "total": self.mean_span_ns("ingress", "egress"),
        }
