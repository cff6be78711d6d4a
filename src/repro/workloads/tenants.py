"""Multi-tenant traffic: per-tenant rates, bursts and heavy hitters.

The Fig. 13/14 scenario is four tenants at 4/3/2/1 Mpps with tenant 1
bursting to 34 Mpps at t=15 s; :class:`TenantSet` builds that kind of
schedule generically.
"""

from repro.workloads.generators import CbrSource, FlowPopulation
from repro.packet.flows import flow_for_tenant


class TenantProfile:
    """One tenant's traffic description.

    ``rate_changes`` is a list of ``(time_ns, rate_pps)`` events applied in
    order (the initial rate is ``rate_pps``).
    """

    def __init__(self, vni, rate_pps, flow_count=16, rate_changes=None, size=256):
        self.vni = vni
        self.rate_pps = rate_pps
        self.flow_count = flow_count
        self.rate_changes = list(rate_changes or [])
        self.size = size

    def population(self):
        flows = [flow_for_tenant(self.vni, index) for index in range(self.flow_count)]
        return FlowPopulation(flows, vnis=[self.vni] * self.flow_count)


class TenantSet:
    """Drives one CBR source per tenant into a shared sink."""

    def __init__(self, sim, rngs, sink, profiles):
        self.sim = sim
        self.profiles = list(profiles)
        self.sources = {}
        for profile in self.profiles:
            rng = rngs.stream(f"tenant.{profile.vni}")
            source = CbrSource(
                sim,
                rng,
                sink,
                profile.population(),
                profile.rate_pps,
                size=profile.size,
            )
            self.sources[profile.vni] = source
            for time_ns, rate_pps in profile.rate_changes:
                sim.schedule_at(time_ns, source.set_rate, rate_pps)

    def emitted(self, vni):
        return self.sources[vni].emitted

    def stop_all(self):
        for source in self.sources.values():
            source.stop()


def overload_scenario_profiles(
    rates_mpps=(4, 3, 2, 1),
    burst_vni_index=0,
    burst_rate_mpps=34,
    burst_at_ns=15_000_000_000,
    scale=1.0,
    flow_count=64,
):
    """The Fig. 13/14 tenant schedule, optionally scaled down.

    ``scale`` multiplies every rate (use e.g. 0.01 to run the same shape
    at laptop speed).
    """
    profiles = []
    for index, rate in enumerate(rates_mpps):
        changes = []
        if index == burst_vni_index:
            changes.append((burst_at_ns, int(burst_rate_mpps * 1e6 * scale)))
        profiles.append(
            TenantProfile(
                vni=index + 1,
                rate_pps=int(rate * 1e6 * scale),
                flow_count=flow_count,
                rate_changes=changes,
            )
        )
    return profiles
