"""Packet-level load balancing: dispatch (ingress) and reorder (egress)."""

from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig, TxOutcome

__all__ = [
    "PlbDispatcher",
    "ReorderEngine",
    "ReorderQueueConfig",
    "TxOutcome",
]
