"""Stateful NF scaling model (§7, "Stateful network function support").

The paper's finding:

* **write-light** stateful NFs (state written only at session establish /
  teardown) scale ~linearly with cores under PLB;
* **write-heavy** NFs (per-packet counters) *degrade as cores are added*
  -- and removing locks does not help, because the cost is
  cache-coherence traffic, not lock contention;
* the fixes are per-core (local) state, or spraying across a core subset.

Model: a flow's state line can only be written by one core at a time, so
shared-state writes are a *serial section*.  Aggregate throughput is the
minimum of

* the compute cap -- ``cores / per_packet_work`` (writes hit the local
  cache when state is unshared), and
* the serialization cap -- how many writes per second the bouncing cache
  line sustains.  Each write costs a coherence transfer whose latency
  *grows with the number of contending cores* (probe/backoff overhead),
  which is what makes the write-heavy curve bend downward: beyond the
  crossover, adding cores adds contention overhead to every transfer
  while the serial bottleneck stays serial.
"""


class StatefulNfModel:
    """Throughput model for a stateful NF under different spray strategies.

    Parameters:
        base_ns: per-packet work excluding state writes.
        writes_per_packet: state writes per packet (0.01 for write-light
            session create/teardown, ~2 for per-packet counters).
        local_write_ns: cost of a write whose line is core-local.
        coherence_miss_ns: base cost of stealing the line from another core.
        contention_overhead: extra transfer cost per additional contender
            (probe traffic, retries); drives the downward bend.
        lock_ns: lock acquire/release cost per write (0 if lock-free).
    """

    def __init__(
        self,
        base_ns=500,
        writes_per_packet=1.0,
        local_write_ns=8,
        coherence_miss_ns=150,
        contention_overhead=0.05,
        lock_ns=40,
    ):
        self.base_ns = base_ns
        self.writes_per_packet = writes_per_packet
        self.local_write_ns = local_write_ns
        self.coherence_miss_ns = coherence_miss_ns
        self.contention_overhead = contention_overhead
        self.lock_ns = lock_ns

    def per_packet_local_ns(self):
        """Cost when state stays core-local (RSS / per-core state)."""
        return self.base_ns + self.writes_per_packet * self.local_write_ns

    def serial_ns_per_packet(self, sharing_cores, locked=True):
        """Serialized nanoseconds each packet contributes when
        ``sharing_cores`` cores write the same state."""
        transfer = self.coherence_miss_ns * (
            1.0 + self.contention_overhead * (sharing_cores - 1)
        )
        if locked:
            transfer += self.lock_ns
        return self.writes_per_packet * transfer

    def _shared_throughput_mpps(self, cores, locked):
        compute_cap = cores * 1e3 / self.per_packet_local_ns()
        if cores <= 1 or self.writes_per_packet == 0:
            return compute_cap
        serial_cap = 1e3 / self.serial_ns_per_packet(cores, locked)
        return min(compute_cap, serial_cap)

    def throughput_mpps(self, cores, mode="plb", locked=True, group_size=None):
        """Aggregate Mpps for ``cores`` data cores.

        Modes:
            ``plb``        -- spray across all cores (state shared by all).
            ``rss``        -- per-flow pinning: state core-local; uniform-
                              traffic best case (a heavy flow still caps at
                              one core -- Fig. 8's story).
            ``plb_local``  -- PLB with per-core sharded state: writes stay
                              local, counters merged off the fast path.
            ``plb_grouped``-- spray within groups of ``group_size`` cores:
                              serialization is per-group.
        """
        if cores <= 0:
            raise ValueError("cores must be positive")
        if mode == "plb":
            return self._shared_throughput_mpps(cores, locked)
        if mode in ("rss", "plb_local"):
            return cores * 1e3 / self.per_packet_local_ns()
        if mode == "plb_grouped":
            size = group_size if group_size is not None else max(1, cores // 4)
            size = min(size, cores)
            groups, remainder = divmod(cores, size)
            total = groups * self._shared_throughput_mpps(size, locked)
            if remainder:
                total += self._shared_throughput_mpps(remainder, locked)
            return total
        raise ValueError(f"unknown mode {mode!r}")


def write_light_nf():
    """Session establish/teardown only: ~1 write per 100 packets."""
    return StatefulNfModel(base_ns=500, writes_per_packet=0.01)


def write_heavy_nf():
    """Per-packet session counters: 2 writes per packet."""
    return StatefulNfModel(base_ns=500, writes_per_packet=2.0)
