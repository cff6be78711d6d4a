"""Correctness tooling: static analyzers + runtime simulation sanitizer.

Every claim this reproduction makes -- per-flow ordering out of the reorder
engine, byte-identical fault-scenario reports, byte-identical restores of
checkpointed pods and sweep shards -- rests on the simulation being
deterministic, invariant-preserving and *completely* captured by its
snapshots.  This package makes those properties machine-checked:

* **Linter** (``python -m repro lint``): AST rules over the tree.  The
  DET rules (:mod:`.rules`) catch the ways determinism silently breaks --
  stray entropy/clock sources, unsorted iteration feeding scheduling
  decisions, float equality on simtime, hand-rolled event heaps.  The
  SNAP rules (:mod:`.snaprules`) cross-check each class's mutable state
  (:mod:`.statemodel`) against its ``checkpoint()``/``restore()`` pair so
  checkpoint drift is caught before it breaks byte-identity.  The rule
  inventory is generated from the registry: run
  ``python -m repro lint --list-rules`` for the authoritative list.
* **State-check prober** (``python -m repro statecheck``): runs a small
  scenario, discovers every live checkpoint-capable component, and
  executes checkpoint -> restore -> checkpoint byte-equality probes
  derived from the same state models the SNAP rules use.  See
  :mod:`.statecheck`.
* **Sanitizer** (``REPRO_SANITIZE=1 python -m repro <command>``):
  cheap, toggleable runtime invariant checks wired into the sim engine,
  NIC pipeline, reorder engine, rate limiter and CPU cores.  Violations
  raise :class:`SanitizerViolation` with the offending event trace.  See
  :mod:`.sanitizer`.
"""

from repro.analysis.registry import (
    all_project_rules,
    all_rules,
    get_rule,
    select_rules,
)
from repro.analysis.reporter import (
    Finding,
    LintReport,
    lint_paths,
    lint_source,
)
from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerViolation,
    get_sanitizer,
    install,
    uninstall,
)
from repro.analysis.statemodel import ClassStateModel, extract_models

__all__ = [
    "ClassStateModel",
    "Finding",
    "LintReport",
    "Sanitizer",
    "SanitizerViolation",
    "all_project_rules",
    "all_rules",
    "extract_models",
    "get_rule",
    "get_sanitizer",
    "install",
    "lint_paths",
    "lint_source",
    "select_rules",
    "uninstall",
]
