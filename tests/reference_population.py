"""The eager ``FlowPopulation`` this repo shipped before populations became
index-computed, kept verbatim as the oracle ``test_workloads_metrics.py``
compares draws against.  It builds every flow, VNI and cumulative weight up
front, so it lives under ``tests/`` and nothing in ``src/`` may import it.
"""

import bisect
import itertools

from repro.packet.flows import flow_for_tenant


class FlowPopulation:
    """Weighted flows: ``choose`` picks one proportionally to its weight."""

    def __init__(self, flows, weights=None, vnis=None):
        self.flows = list(flows)
        if not self.flows:
            raise ValueError("population needs at least one flow")
        if weights is None:
            weights = [1.0] * len(self.flows)
        if len(weights) != len(self.flows):
            raise ValueError("weights/flows length mismatch")
        self.vnis = list(vnis) if vnis is not None else [0] * len(self.flows)
        if len(self.vnis) != len(self.flows):
            raise ValueError("vnis/flows length mismatch")
        self._cumulative = list(itertools.accumulate(weights))
        self.total_weight = self._cumulative[-1]

    def __len__(self):
        return len(self.flows)

    def choose(self, rng):
        """Return (flow, vni) sampled by weight."""
        point = rng.random() * self.total_weight
        index = bisect.bisect_right(self._cumulative, point)
        index = min(index, len(self.flows) - 1)
        return self.flows[index], self.vnis[index]


def uniform_population(flow_count, tenants=1, flows_per_tenant=None):
    """Equal-weight flows spread across ``tenants`` VNIs."""
    if flows_per_tenant is None:
        flows_per_tenant = max(1, flow_count // tenants)
    flows, vnis = [], []
    for index in range(flow_count):
        tenant = index // flows_per_tenant % tenants
        flows.append(flow_for_tenant(tenant, index))
        vnis.append(tenant)
    return FlowPopulation(flows, vnis=vnis)


def zipf_population(flow_count, exponent=1.05, tenants=1, flows_per_tenant=None):
    """Zipf-weighted flows: a few hot flows dominate (cloud reality).

    ``exponent`` ~1 gives the heavy skew that produces the paper's 30-45%
    L3 hit rates despite multi-GB tables.
    """
    if flows_per_tenant is None:
        flows_per_tenant = max(1, flow_count // tenants)
    flows, vnis, weights = [], [], []
    for index in range(flow_count):
        tenant = index // flows_per_tenant % tenants
        flows.append(flow_for_tenant(tenant, index))
        vnis.append(tenant)
        weights.append(1.0 / (index + 1) ** exponent)
    return FlowPopulation(flows, weights=weights, vnis=vnis)
