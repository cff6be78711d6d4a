"""CPU substrate: cores, caches, services, NUMA, queues.

Models the x86 side of Albatross: GW-pod data cores polling RX queues,
per-packet service times driven by table lookups through an LRU L3-cache
model, NUMA placement effects, and DPDK-style bounded descriptor rings.
The stateful-NF model (:mod:`.stateful`, the ablations' alone) is
imported from its module.
"""

from repro.cpu.cache import CacheStats, LruCacheModel, SharedL3Cache
from repro.cpu.core import CoreStats, CpuCore, Verdict
from repro.cpu.numa import NumaBalancer, NumaNode, NumaTopology
from repro.cpu.queues import PacketQueue
from repro.cpu.service import (
    GatewayService,
    MemoryTimings,
    ServiceChain,
    standard_services,
)

__all__ = [
    "CacheStats",
    "LruCacheModel",
    "SharedL3Cache",
    "CoreStats",
    "CpuCore",
    "Verdict",
    "NumaBalancer",
    "NumaNode",
    "NumaTopology",
    "PacketQueue",
    "GatewayService",
    "MemoryTimings",
    "ServiceChain",
    "standard_services",
]
