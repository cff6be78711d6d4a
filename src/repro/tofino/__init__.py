"""Tofino pipeline resource model: the 2nd-gen (Sailfish) substrate.

The paper's motivation (§2.1, Tab. 1) is that Sailfish consumed nearly
all of Tofino's on-chip resources -- 97% PHV on the ingress pipes, 96.4%
SRAM on the egress pipes -- so new headers, large tables, and
long-chained functions could no longer compile.  This package models
that: a P4-ish program description (:mod:`~repro.tofino.program`), a
per-pipeline resource allocator with stage/dependency placement
(:mod:`~repro.tofino.allocator`), and a representative Sailfish program
(:mod:`~repro.tofino.sailfish`) whose allocation lands on Tab. 1's
utilization numbers and exhibits all three failure modes the paper
lists.
"""

from repro.tofino.allocator import AllocationError, AllocationResult, PipelineAllocator
from repro.tofino.program import Header, P4Program, Table
from repro.tofino.resources import PipelineSpec
from repro.tofino.sailfish import sailfish_egress_program, sailfish_ingress_program

__all__ = [
    "AllocationError",
    "AllocationResult",
    "PipelineAllocator",
    "Header",
    "P4Program",
    "Table",
    "PipelineSpec",
    "sailfish_egress_program",
    "sailfish_ingress_program",
]
