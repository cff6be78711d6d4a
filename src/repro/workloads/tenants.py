"""Multi-tenant traffic: per-tenant rates and a heavy hitter's burst.

The Fig. 13/14 scenario is four tenants at 4/3/2/1 Mpps with tenant 1
bursting to 34 Mpps at t=15 s; :func:`overload_workloads` declares it.
"""

from repro.scenarios.spec import WorkloadSpec

#: The paper's tenants' rates (Mpps, VNIs 1-4) and tenant 1's burst.
OVERLOAD_RATES_MPPS = (4, 3, 2, 1)
OVERLOAD_BURST_MPPS = 34
FLOWS_PER_TENANT = 64


def overload_workloads(burst_at_ns=15_000_000_000, scale=1.0):
    """The Fig. 13/14 tenants as one :class:`WorkloadSpec` each, optionally
    scaled down: VNI ``v`` sends 64 flows on stream ``tenant.<v>``, and
    VNI 1 bursts at ``burst_at_ns``.

    ``scale`` multiplies every rate (use e.g. 0.01 to run the same shape
    at laptop speed).
    """
    burst = ((burst_at_ns, int(OVERLOAD_BURST_MPPS * 1e6 * scale)),)
    return tuple(
        WorkloadSpec(
            flows=FLOWS_PER_TENANT, tenants=1, first_tenant=vni,
            rate_pps=int(rate * 1e6 * scale), stream=f"tenant.{vni}",
            schedule=burst if vni == 1 else (),
        )
        for vni, rate in enumerate(OVERLOAD_RATES_MPPS, start=1)
    )
