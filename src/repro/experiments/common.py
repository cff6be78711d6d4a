"""Shared experiment machinery.

Experiments run *scaled down*: the paper's 88-core, 120 Mpps server
becomes a handful of cores at ~0.1-1 Mpps each, with every ratio that
matters (load fraction, heavy-hitter multiple, cache-to-table ratio,
timeout-to-service-time ratio) preserved.  The scaling discipline lives
in :func:`repro.cpu.service.scaled_service`: an experiment states a
one-pod :class:`~repro.scenarios.ScenarioSpec` with ``per_core_pps``
set, calls :func:`repro.scenarios.build` and injects its own traffic
through the returned handle.
"""


class ExperimentResult:
    """Container for an experiment's output rows.

    ``rows`` is a list of dicts, one per output line (a table row or a
    figure series point); ``meta`` carries scalars (summaries, paper
    reference values).
    """

    def __init__(self, name, rows, meta=None):
        self.name = name
        self._rows = list(rows)
        self.meta = dict(meta or {})

    def rows(self):
        return list(self._rows)

    def to_dict(self):
        return {
            "experiment": self.name,
            "rows": self.rows(),
            "meta": dict(self.meta),
        }

    def column(self, key):
        return [row[key] for row in self._rows]

    def print_table(self):
        print(f"\n== {self.name} ==")
        print(format_table(self._rows))
        for key, value in self.meta.items():
            print(f"  {key}: {value}")

    def __repr__(self):
        return f"<ExperimentResult {self.name}: {len(self._rows)} rows>"


def format_table(rows):
    """Render a list of dicts as an aligned text table.

    Columns are the union of all row keys, in first-seen order, so rows
    with differing shapes (e.g. merged sweep rows next to per-shard
    rows) still line up.  A key a row lacks renders as ``-``; an
    explicit ``None`` value still renders as ``None``.
    """
    if not rows:
        return "(no rows)"
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [
        {col: _fmt(row[col]) if col in row else "-" for col in columns}
        for row in rows
    ]
    widths = {
        col: max(len(col), *(len(row[col]) for row in rendered)) for col in columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    divider = "  ".join("-" * widths[col] for col in columns)
    body = "\n".join(
        "  ".join(row[col].ljust(widths[col]) for col in columns) for row in rendered
    )
    return f"{header}\n{divider}\n{body}"


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
