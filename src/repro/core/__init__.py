"""Albatross's primary contribution: the FPGA NIC pipeline.

Subsystems (paper section in parentheses):

* :mod:`repro.core.meta` -- the PLB meta header tagged onto every sprayed
  packet (§4.1, §7 "meta header" lesson).
* :mod:`repro.core.pktdir` -- the ``pkt_dir`` classifier splitting
  traffic into priority / PLB / RSS paths (§3.2).
* :mod:`repro.core.plb` -- packet-level load balancing: dispatch (spray +
  PSN tagging) and reorder (FIFO/BUF/BITMAP engine) (§4.1).
* :mod:`repro.core.rss` -- the flow-level RSS baseline and fallback.
* :mod:`repro.core.ratelimit` -- two-stage tenant overload rate limiter
  (§4.3).
* :mod:`repro.core.priority` -- protocol-packet priority queues (§4.3).
* :mod:`repro.core.resources` -- FPGA latency/resource accounting
  (Tab. 4, Tab. 5).
* :mod:`repro.core.nic` -- the assembled NIC pipeline.
* :mod:`repro.core.gateway` -- GW pod runtime + Albatross server: the
  top-level public API.

The heavy-hitter promoter (:mod:`repro.core.hitters`) and the PCIe
and port-capacity models (:mod:`repro.core.pcie`) are not on a pod's
build path; import them from their modules.
"""

from repro.core.gateway import AlbatrossServer, GwPodRuntime
from repro.core.meta import MetaPlacement, PlbMeta
from repro.core.nic import NicPipeline
from repro.core.offload import FpgaSessionOffload
from repro.core.pktdir import PktDir
from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig
from repro.core.priority import PriorityQueueManager
from repro.core.ratelimit import RateLimitDecision, TwoStageRateLimiter
from repro.core.resources import NIC_MODULE_LATENCY_US
from repro.core.rss import RssDispatcher

__all__ = [
    "AlbatrossServer",
    "GwPodRuntime",
    "MetaPlacement",
    "PlbMeta",
    "NicPipeline",
    "FpgaSessionOffload",
    "PktDir",
    "PlbDispatcher",
    "ReorderEngine",
    "ReorderQueueConfig",
    "PriorityQueueManager",
    "RateLimitDecision",
    "TwoStageRateLimiter",
    "NIC_MODULE_LATENCY_US",
    "RssDispatcher",
]
