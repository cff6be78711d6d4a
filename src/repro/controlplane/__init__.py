"""Control plane: live pod migration orchestration.

The control plane drives **drain -> freeze -> checkpoint -> restore ->
route-update** of a live GW pod onto another server slice or NUMA node
with zero per-flow reordering and zero packet loss (the paper's
container-elasticity story, §7, taken one step further: moving a pod
without dropping its traffic).

* :mod:`repro.controlplane.snapshot` -- declared state (``STATE``,
  ``DERIVED``), the one snapshot codec, plain-data validation and the
  canonical byte encoding of component checkpoints.
* :mod:`repro.controlplane.migration` -- :class:`MigrationController`
  executes a :class:`~repro.scenarios.spec.MigrationSpec` as clock-driven
  simulator events and records per-phase timing in a
  :class:`MigrationPlan`.
* :mod:`repro.controlplane.scenarios` -- named migration scenarios for
  ``python -m repro migrate``.

The package loads only :mod:`~repro.controlplane.snapshot`, which
``repro.core`` needs to inherit ``Stateful``; import the migration and
scenario modules from their own names (a run without a migration never
loads them).
"""

from repro.controlplane.snapshot import ensure_plain, snapshot_bytes

__all__ = [
    "ensure_plain",
    "snapshot_bytes",
]
