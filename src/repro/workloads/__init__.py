"""Traffic generation: flow populations, sources, tenants, microbursts.

Everything the paper's evaluation throws at the gateway, as synthetic
generators: 500K-flow service workloads (Tab. 3), heavy hitters on
background traffic (Fig. 8), microbursts (Fig. 9/10), multi-tenant
overload scenarios (Fig. 13/14), and week-long production-style load
traces (Fig. 10/11).
"""

from repro.workloads.generators import (
    CbrSource,
    FlowPopulation,
    PoissonSource,
    ScheduledSource,
    uniform_population,
    zipf_population,
)
from repro.workloads.microburst import MicroburstSource

__all__ = [
    "CbrSource",
    "FlowPopulation",
    "PoissonSource",
    "ScheduledSource",
    "uniform_population",
    "zipf_population",
    "MicroburstSource",
]
