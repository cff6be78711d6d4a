"""Shared experiment machinery.

Experiments run *scaled down*: the paper's 88-core, 120 Mpps server
becomes a handful of cores at ~0.1-1 Mpps each, with every ratio that
matters (load fraction, heavy-hitter multiple, cache-to-table ratio,
timeout-to-service-time ratio) preserved.  The scaling discipline lives
in :func:`repro.cpu.service.scaled_service`: an experiment states a
one-pod :class:`~repro.scenarios.ScenarioSpec` with ``per_core_pps``
set, declares its traffic on the same spec (one
:class:`~repro.scenarios.WorkloadSpec` per source), and calls
:func:`repro.scenarios.build`.
"""

from repro.scenarios import WorkloadSpec
from repro.table import format_table


class ExperimentResult:
    """Container for an experiment's output rows.

    ``rows`` is a list of dicts, one per output line (a table row or a
    figure series point), and may be empty; ``meta`` carries scalars
    (summaries, paper reference values).
    """

    def __init__(self, name, rows, meta=None):
        self.name = name
        self._rows = list(rows)
        self.meta = dict(meta or {})

    def rows(self):
        return list(self._rows)

    def column(self, key):
        return [row[key] for row in self._rows]

    def print_table(self):
        print(f"\n== {self.name} ==")
        if self._rows:
            print(format_table(self._rows))
        for key, value in self.meta.items():
            print(f"  {key}: {value}")

    def __repr__(self):
        return f"<ExperimentResult {self.name}: {len(self._rows)} rows>"


def burst_workloads(first_tenant, rate_pps, duration_ns, gap_ns, horizon_ns):
    """Repeated single-flow microbursts on rotating flows (Fig. 9/10):
    burst ``i`` is flow ``i`` of tenant ``first_tenant + i`` on stream
    ``burst<i>``, at ``rate_pps`` from ``gap_ns + i * (duration_ns +
    gap_ns)`` for ``duration_ns``."""
    starts = range(gap_ns, horizon_ns, duration_ns + gap_ns)
    return tuple(
        WorkloadSpec(
            flows=1, tenants=1, first_tenant=first_tenant + index, first_flow=index,
            rate_pps=0, stream=f"burst{index}",
            schedule=((start, rate_pps), (start + duration_ns, 0)),
        )
        for index, start in enumerate(starts)
    )
