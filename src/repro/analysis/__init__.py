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
  rule inventory is generated from the registry: run
  ``python -m repro lint --list-rules`` for the authoritative list.
* **State check** (``python -m repro statecheck``): builds small live
  worlds and checks what each stateful class declares
  (``STATE``/``DERIVED``, see :mod:`repro.controlplane.snapshot`): a
  completeness rule flags any undeclared attribute a run changes, and
  checkpoint -> restore into a freshly built twin -> checkpoint probes
  prove every snapshot round-trips byte for byte; a hand-written pair
  must write and read every key its ``STATE`` declares.  See
  :mod:`.statecheck`.
* **Sanitizer** (``REPRO_SANITIZE=1 python -m repro <command>``):
  cheap, toggleable runtime invariant checks wired into the sim engine,
  NIC pipeline, reorder engine, rate limiter and CPU cores.  Violations
  raise :class:`SanitizerViolation` with the offending event trace.  See
  :mod:`.sanitizer`.

The package loads only the sanitizer, which every run consults; import
the linter (:mod:`.registry`, :mod:`.reporter`) and :mod:`.statecheck`
from their modules.
"""

from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerViolation,
    get_sanitizer,
    install,
    uninstall,
)

__all__ = [
    "Sanitizer",
    "SanitizerViolation",
    "get_sanitizer",
    "install",
    "uninstall",
]
