"""Albatross's primary contribution: the FPGA NIC pipeline.

Subsystems (paper section in parentheses):

* :mod:`repro.core.meta` -- the PLB meta header tagged onto every sprayed
  packet (§4.1, §7 "meta header" lesson).
* :mod:`repro.core.pktdir` -- the programmable ``pkt_dir`` classifier
  splitting traffic into priority / PLB / RSS paths (§3.2).
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
"""

from repro.core.gateway import AlbatrossServer, GwPodRuntime
from repro.core.hitters import CpuHitterDetector, SpaceSavingSketch
from repro.core.meta import MetaPlacement, PlbMeta
from repro.core.nic import NicPipeline
from repro.core.offload import FpgaSessionOffload
from repro.core.pcie import PcieLinkModel, PortCapacityModel
from repro.core.pktdir import PktDir, PktDirRule
from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig
from repro.core.priority import PriorityQueueManager
from repro.core.ratelimit import RateLimitDecision, TokenBucket, TwoStageRateLimiter
from repro.core.resources import FpgaResourceModel, NIC_MODULE_LATENCY_US
from repro.core.rss import RssDispatcher

__all__ = [
    "AlbatrossServer",
    "GwPodRuntime",
    "MetaPlacement",
    "PlbMeta",
    "NicPipeline",
    "CpuHitterDetector",
    "SpaceSavingSketch",
    "FpgaSessionOffload",
    "PcieLinkModel",
    "PortCapacityModel",
    "PktDir",
    "PktDirRule",
    "PlbDispatcher",
    "ReorderEngine",
    "ReorderQueueConfig",
    "PriorityQueueManager",
    "RateLimitDecision",
    "TokenBucket",
    "TwoStageRateLimiter",
    "FpgaResourceModel",
    "NIC_MODULE_LATENCY_US",
    "RssDispatcher",
]
