"""Gateway service models: the four services of Tab. 2.

A service is a chain of table lookups plus fixed per-packet compute.  The
per-packet service time is::

    base_ns + sum over lookups of (L3 hit ? l3_hit_ns : dram_ns)

Lookups either consult the shared L3 cache model (simulated mode) or use an
expected hit rate (analytic mode).  Constants are calibrated so that with
the paper's observed ~35% L3 hit rate and 88 data cores (two 44-data-core
pods), the four services land on Tab. 3's packet rates:

    VPC-VPC 128.8 Mpps, VPC-Internet 81.6, VPC-IDC 119.4, VPC-CloudService 126.3

VPC-Internet is the outlier because it runs "significantly longer processing
code and more lookup tables" (§6) -- 8 chained lookups vs 4-5.
"""

from typing import List, NamedTuple

from repro.cpu.cache import CACHE_LINE_BYTES
from repro.packet.hashing import crc32_flow_hash


class MemoryTimings:
    """Latency constants for the memory hierarchy.

    ``dram_ns`` scales inversely with memory frequency: the paper measured
    ~8% gateway speedup going from 4800 to 5600 MHz (§4.2), which the
    456000/MHz rule reproduces for lookup-heavy services.
    """

    def __init__(self, l3_hit_ns=20, memory_frequency_mhz=4800):
        self.l3_hit_ns = l3_hit_ns
        self.memory_frequency_mhz = memory_frequency_mhz

    @property
    def dram_ns(self):
        return 456_000 / self.memory_frequency_mhz

    def lookup_ns(self, hit):
        return self.l3_hit_ns if hit else self.dram_ns

    def expected_lookup_ns(self, hit_rate):
        return hit_rate * self.l3_hit_ns + (1.0 - hit_rate) * self.dram_ns


class LookupSpec(NamedTuple):
    """One table in a service's lookup chain."""

    table: str
    entries: int
    entry_bytes: int


class GatewayService(NamedTuple):
    """A named service: fixed compute plus a lookup chain."""

    name: str
    base_ns: int
    lookups: List[LookupSpec]

    @property
    def lookup_count(self):
        return len(self.lookups)


def standard_services():
    """The four gateway services of Tab. 2, with calibrated chains.

    Entry counts reflect cloud-scale tables (they are scaled down by
    :class:`ServiceChain` for simulation); what matters for Tab. 3 is
    ``base_ns`` and the chain length.
    """
    vm_nc = LookupSpec("vm_nc_mapping", 4_000_000, 256)
    vxlan_route = LookupSpec("vxlan_route", 10_000_000, 64)
    tenant_cfg = LookupSpec("tenant_config", 1_000_000, 512)
    acl = LookupSpec("acl", 2_000_000, 128)
    nat = LookupSpec("nat_pool", 1_000_000, 128)
    bandwidth = LookupSpec("bandwidth_meter", 1_000_000, 64)
    internet_route = LookupSpec("internet_route", 1_000_000, 64)
    cloud_service = LookupSpec("cloud_service_endpoint", 500_000, 256)
    idc_tunnel = LookupSpec("idc_tunnel", 500_000, 256)

    return {
        "VPC-VPC": GatewayService(
            "VPC-VPC", 408, [tenant_cfg, vm_nc, vxlan_route, acl]
        ),
        "VPC-Internet": GatewayService(
            "VPC-Internet",
            528,
            [
                tenant_cfg,
                vm_nc,
                vxlan_route,
                acl,
                nat,
                bandwidth,
                internet_route,
                LookupSpec("conntrack", 2_000_000, 128),
            ],
        ),
        "VPC-IDC": GatewayService(
            "VPC-IDC", 393, [tenant_cfg, vm_nc, vxlan_route, acl, idc_tunnel]
        ),
        "VPC-CloudService": GatewayService(
            "VPC-CloudService",
            353,
            [tenant_cfg, vm_nc, vxlan_route, acl, cloud_service],
        ),
    }


def scaled_service(per_core_pps, lookups=4):
    """A synthetic service whose saturated per-core rate is ``per_core_pps``.

    Uses the analytic 35% hit-rate lookup cost to solve for base_ns, so the
    paper-level per-core ratios carry over exactly at laptop packet rates.
    """
    lookup_ns = MemoryTimings().expected_lookup_ns(0.35)
    base_ns = max(1, int(1e9 / per_core_pps - lookups * lookup_ns))
    specs = [LookupSpec(f"table{i}", 1_000_000, 256) for i in range(lookups)]
    return GatewayService("scaled", base_ns, specs)


class ServiceChain:
    """Executable form of a :class:`GatewayService`.

    In **simulated** mode (``cache`` given), every lookup touches the shared
    L3 model at an address derived from the packet's flow, so the hit rate
    -- and thus the PLB-vs-RSS comparison of Fig. 4/5 -- is emergent.

    In **analytic** mode (``cache=None``), lookups cost the expectation
    under ``assumed_hit_rate``; used where only means matter (Tab. 3 scale).

    ``table_scale`` shrinks table entry counts so laptop-sized simulations
    keep the paper's working-set-to-cache ratio.
    """

    DERIVED = {"_addr_cache": "pure memo of each flow's addresses; a rebuilt chain re-derives it"}

    def __init__(
        self,
        service,
        cache=None,
        timings=None,
        assumed_hit_rate=0.35,
        table_scale=1.0,
        region_base=0,
    ):
        self.service = service
        self.cache = cache
        self.timings = timings if timings is not None else MemoryTimings()
        self.assumed_hit_rate = assumed_hit_rate
        self.table_scale = table_scale
        self._regions = []
        base = region_base
        for spec in service.lookups:
            entries = max(1, int(spec.entries * table_scale))
            self._regions.append((base, entries, spec.entry_bytes))
            span = entries * spec.entry_bytes
            # Align regions to cache lines so tables never share a line.
            base += span + (-span % CACHE_LINE_BYTES)
        self.region_end = base
        # Analytic mode yields a constant (every knob is construction-time
        # only); computed with the same float expression the per-packet
        # path used, so the value matches exactly.  ``None`` in simulated
        # mode, where the time depends on the packet's flow.
        self.fixed_service_ns = None if cache is not None else int(
            float(service.base_ns)
            + service.lookup_count
            * self.timings.expected_lookup_ns(self.assumed_hit_rate)
        )
        # Flow -> address-chain memo: the CRC mix is pure in the flow
        # (same bounded pattern as the RSS Toeplitz cache).
        self._addr_cache = {}

    def lookup_addresses(self, flow):
        """(address, entry_bytes) pairs touched by this flow's chain."""
        addresses = self._addr_cache.get(flow)
        if addresses is None:
            addresses = tuple(
                (
                    base
                    + (crc32_flow_hash(flow, seed=index * 0x1000 + 1) % entries)
                    * entry_bytes,
                    entry_bytes,
                )
                for index, (base, entries, entry_bytes) in enumerate(self._regions)
            )
            if len(self._addr_cache) < 1_000_000:
                self._addr_cache[flow] = addresses
        return addresses

    def service_time_ns(self, packet):
        """Per-packet service time in integer nanoseconds."""
        fixed = self.fixed_service_ns
        if fixed is not None:
            return fixed
        cache = self.cache
        timings = self.timings
        total = float(self.service.base_ns)
        for address, entry_bytes in self.lookup_addresses(packet.flow):
            total += timings.lookup_ns(cache.access(address, entry_bytes))
        return int(total)

    def expected_service_ns(self, hit_rate=None):
        """Mean service time under a given (or assumed) hit rate."""
        rate = self.assumed_hit_rate if hit_rate is None else hit_rate
        return self.service.base_ns + self.service.lookup_count * self.timings.expected_lookup_ns(rate)

    def per_core_mpps(self, hit_rate=None):
        """Saturated single-core throughput in Mpps."""
        return 1e3 / self.expected_service_ns(hit_rate)


class JitterModel:
    """Occasional latency spikes from the software stack (§4.1).

    Most packets see no extra delay; a small fraction hits interrupts,
    page faults or slow code branches.  The paper reports that corner-case
    branches could reach *milliseconds* before they were fixed -- the
    ``slow_branch`` knobs model that pre-fix behaviour for the HOL
    experiments.
    """

    def __init__(
        self,
        rng,
        spike_probability=0.002,
        spike_mean_ns=15_000,
        slow_branch_probability=0.0,
        slow_branch_ns=1_000_000,
    ):
        self.rng = rng
        self.spike_probability = spike_probability
        self.spike_mean_ns = spike_mean_ns
        self.slow_branch_probability = slow_branch_probability
        self.slow_branch_ns = slow_branch_ns

    def draw_ns(self):
        """Extra nanoseconds to add to one packet's service time."""
        extra = 0
        roll = self.rng.random()
        if roll < self.slow_branch_probability:
            extra += self.slow_branch_ns
        elif roll < self.slow_branch_probability + self.spike_probability:
            extra += int(self.rng.expovariate(1.0 / self.spike_mean_ns))
        return extra
