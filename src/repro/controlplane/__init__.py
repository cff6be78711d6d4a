"""Control plane: live pod migration orchestration.

The control plane drives **drain -> freeze -> checkpoint -> restore ->
route-update** of a live GW pod onto another server slice or NUMA node
with zero per-flow reordering and zero packet loss (the paper's
container-elasticity story, §7, taken one step further: moving a pod
without dropping its traffic).

* :mod:`repro.controlplane.snapshot` -- plain-data validation and the
  canonical byte encoding of component checkpoints.
* :mod:`repro.controlplane.migration` -- :class:`MigrationController`
  executes a :class:`~repro.scenarios.spec.MigrationSpec` as clock-driven
  simulator events and records per-phase timing in a
  :class:`MigrationPlan`.
* :mod:`repro.controlplane.scenarios` -- named migration scenarios for
  ``python -m repro migrate``.
"""

from repro.controlplane.migration import (
    MigrationController,
    MigrationPhase,
    MigrationPlan,
)
from repro.controlplane.scenarios import (
    MIGRATION_SCENARIOS,
    migration_scenario_spec,
    run_migration_scenario,
)
from repro.controlplane.snapshot import ensure_plain, snapshot_bytes

__all__ = [
    "MIGRATION_SCENARIOS",
    "MigrationController",
    "MigrationPhase",
    "MigrationPlan",
    "ensure_plain",
    "migration_scenario_spec",
    "run_migration_scenario",
    "snapshot_bytes",
]
