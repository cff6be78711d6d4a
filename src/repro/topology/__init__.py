"""AZ-scale multi-server topology: ECMP uplink + two-tier fast path.

One simulated availability zone is N :class:`~repro.core.gateway.
AlbatrossServer` deployments behind an ECMP uplink switch
(:class:`EcmpUplink`).  Each server fronts its NIC/FPGA+CPU pipeline
with an optional "DPU" pre-classifier tier (:class:`DpuPreClassifier`):
a small exact-match flow table that forwards hot flows at a fixed cheap
latency, with promotion/demotion decided per epoch by
:class:`HotFlowPromoter`, the hitter policy of :mod:`repro.core.hitters`
keyed by flow.  Inside a server, :class:`FlowPodDispatch` picks the pod
with a second, independently seeded flow hash.

Every hop is synchronous (no scheduled events between the uplink and
the pod NIC), so the uplink trivially preserves per-flow packet order:
a flow hashes (or is pinned) to exactly one server and its packets
arrive there in emission order.  Synchronicity also means that at a
quiescent instant only the pods hold packets in flight: each class here
declares its ``STATE`` (the pin table, the DPU table, the promoter and
its epoch timer, the counters), and a ``SimCheckpoint`` of a topology
spec carries them in its ``"topology"`` section.
"""

from repro.core.hitters import HotFlowPromoter
from repro.topology.dpu import DpuPreClassifier
from repro.topology.switch import EcmpUplink, FlowPodDispatch

__all__ = [
    "DpuPreClassifier",
    "EcmpUplink",
    "FlowPodDispatch",
    "HotFlowPromoter",
]
