"""Unified scenario API: define a scenario once, run it from anywhere.

* :class:`ScenarioSpec` (with :class:`PodSpec` and :class:`WorkloadSpec`)
  is the plain-data description of a run -- deployment, workload,
  duration, seed -- serializable via ``to_dict``/``from_dict``.
* :func:`build` turns a spec into a live :class:`RunHandle` (simulator,
  server, pods, sources) every entry point drives: ``simulate`` runs one
  and prints it, ``faults`` wires injectors onto them, and ``sweep``
  ships them to worker processes and merges the run reports.
* :mod:`repro.scenarios.registry` names the canonical specs.
"""

from repro.scenarios.build import RunHandle, build
from repro.scenarios.registry import SCENARIO_FACTORIES, lookup, scenario_spec
from repro.scenarios.spec import (
    DpuTierSpec,
    EcmpSpec,
    MigrationSpec,
    PodSpec,
    ScenarioSpec,
    ServerSpec,
    WorkloadSpec,
    apply_override,
)

__all__ = [
    "DpuTierSpec",
    "EcmpSpec",
    "MigrationSpec",
    "PodSpec",
    "RunHandle",
    "SCENARIO_FACTORIES",
    "ScenarioSpec",
    "ServerSpec",
    "WorkloadSpec",
    "apply_override",
    "build",
    "lookup",
    "scenario_spec",
]
