"""FPGA session offloading (§7, "Future FPGA offloading plan").

The paper's plan for write-heavy stateful NFs: keep per-flow sessions on
the FPGA so established flows never touch the CPU -- PLB's heavy-hitter
tolerance without the cache-coherence collapse.  This module implements
that plan so the repo covers the roadmap feature:

* :class:`FpgaSessionOffload` -- the on-NIC session table and fast path,
  pluggable into :class:`~repro.core.nic.NicPipeline`.  The CPU remains
  the slow path: it processes a flow's first packets and *installs* the
  session; subsequent packets are forwarded entirely inside the FPGA at
  fixed latency.
* :func:`offload_throughput_mpps` -- the analytic companion to
  :class:`~repro.cpu.stateful.StatefulNfModel` for the ablation bench.

Sessions age out (hardware timer) and the table is capacity-bounded like
any on-chip structure.
"""

from repro.packet.flows import FlowKey
from repro.sim.units import SECOND, US

# Per-packet forwarding latency of the FPGA fast path (no DMA, no CPU):
# parser + session lookup + deparser.
FAST_PATH_LATENCY_NS = 2 * US

# Fast-path forwarding capacity of one pod's NIC slice (packets/s).  FPGA
# pipelines run at line rate; this is effectively "not the bottleneck".
DEFAULT_FAST_PATH_PPS = 100_000_000


class OffloadedSession:
    """One FPGA-resident session."""

    __slots__ = ("flow", "installed_ns", "last_hit_ns", "hits")

    def __init__(self, flow, now_ns):
        self.flow = flow
        self.installed_ns = now_ns
        self.last_hit_ns = now_ns
        self.hits = 0


class FpgaSessionOffload:
    """On-NIC session table + fast path.

    Parameters:
        sim: the simulator.
        capacity: session-table entries (on-chip memory bound).
        idle_timeout_ns: hardware aging: sessions idle longer are evicted.
        install_after_packets: the CPU installs the session once it has
            seen this many packets of the flow (connection setup must
            complete on the slow path first).

    It keeps a hand-written snapshot: rows in table insertion order,
    because idle-eviction ties break on iteration order.
    """

    STATE = (
        ("sessions", "_sessions"), ("cpu_seen", "_cpu_seen"), "fast_path_hits",
        "slow_path_misses", "installs", "install_rejections", "evictions",
    )

    def __init__(
        self,
        sim,
        capacity=65536,
        idle_timeout_ns=10 * SECOND,
        install_after_packets=2,
        fast_path_pps=DEFAULT_FAST_PATH_PPS,
    ):
        self.sim = sim
        self.capacity = capacity
        self.idle_timeout_ns = idle_timeout_ns
        self.install_after_packets = install_after_packets
        self.fast_path_pps = fast_path_pps
        self._sessions = {}
        self._cpu_seen = {}
        self.fast_path_hits = 0
        self.slow_path_misses = 0
        self.installs = 0
        self.install_rejections = 0
        self.evictions = 0

    @property
    def hit_rate(self):
        total = self.fast_path_hits + self.slow_path_misses
        return self.fast_path_hits / total if total else 0.0

    # -- data path ---------------------------------------------------------

    def lookup(self, flow):
        """Fast-path check at ingress; returns True on an offload hit."""
        session = self._sessions.get(flow)
        now = self.sim.now
        if session is None:
            self.slow_path_misses += 1
            return False
        if now - session.last_hit_ns > self.idle_timeout_ns:
            # Hardware aging: the timer expired this entry.
            del self._sessions[flow]
            self.evictions += 1
            self.slow_path_misses += 1
            return False
        session.last_hit_ns = now
        session.hits += 1
        self.fast_path_hits += 1
        return True

    def note_cpu_packet(self, flow):
        """Called when the CPU (slow path) forwards a packet of ``flow``.

        Once the flow has cleared ``install_after_packets``, the CPU
        installs the session into the FPGA.  Returns True if an install
        happened.
        """
        if flow in self._sessions:
            return False
        seen = self._cpu_seen.get(flow, 0) + 1
        if seen < self.install_after_packets:
            self._cpu_seen[flow] = seen
            return False
        self._cpu_seen.pop(flow, None)
        return self.install(flow)

    def install(self, flow):
        """Install a session; returns False when the table is full."""
        if flow in self._sessions:
            return True
        if len(self._sessions) >= self.capacity:
            if not self._evict_one_idle():
                self.install_rejections += 1
                return False
        self._sessions[flow] = OffloadedSession(flow, self.sim.now)
        self.installs += 1
        return True

    def _evict_one_idle(self):
        """Evict the stalest session if it is past the idle timeout."""
        now = self.sim.now
        stalest = None
        for session in self._sessions.values():
            if stalest is None or session.last_hit_ns < stalest.last_hit_ns:
                stalest = session
        if stalest is None or now - stalest.last_hit_ns <= self.idle_timeout_ns:
            return False
        del self._sessions[stalest.flow]
        self.evictions += 1
        return True

    def checkpoint(self):
        """Plain-data snapshot of the on-NIC session table.

        A flow is stored as its five fields, ``list(flow)``, not as the
        packed int, and ``FlowKey(*fields)`` rebuilds it on restore."""
        return {
            "sessions": [
                [list(flow), session.installed_ns, session.last_hit_ns, session.hits]
                for flow, session in self._sessions.items()
            ],
            "cpu_seen": [[list(flow), seen] for flow, seen in self._cpu_seen.items()],
            # The counters: STATE after the two tables.
            **{name: getattr(self, name) for name in self.STATE[2:]},
        }

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint` in place."""
        self._sessions = {}
        for flow_fields, installed_ns, last_hit_ns, hits in snapshot["sessions"]:
            flow = FlowKey(*flow_fields)
            session = OffloadedSession(flow, installed_ns)
            session.last_hit_ns = last_hit_ns
            session.hits = hits
            self._sessions[flow] = session
        self._cpu_seen = {
            FlowKey(*fields): seen for fields, seen in snapshot["cpu_seen"]
        }
        for name in self.STATE[2:]:
            setattr(self, name, snapshot[name])


def offload_throughput_mpps(
    nf_model,
    cores,
    offload_hit_rate,
    fast_path_pps=DEFAULT_FAST_PATH_PPS,
):
    """Analytic throughput of a write-heavy NF with session offload.

    A fraction ``offload_hit_rate`` of packets is absorbed by the FPGA
    fast path; the CPU only sees the remainder (session setups and table
    misses), each processed with core-local state (the FPGA owns the
    per-session counters, so no cross-core coherence traffic remains).
    The combined rate is capped by the fast path's line rate.
    """
    if not 0.0 <= offload_hit_rate <= 1.0:
        raise ValueError(f"hit rate out of range: {offload_hit_rate}")
    cpu_mpps = nf_model.throughput_mpps(cores, "plb_local")
    if offload_hit_rate == 1.0:
        return fast_path_pps / 1e6
    # CPU throughput bounds the miss stream; total = misses / miss_share.
    total = cpu_mpps / (1.0 - offload_hit_rate)
    return min(total, fast_path_pps / 1e6)
