"""Plain-text tables: the one renderer every command prints rows with.

A leaf module: it imports nothing, so ``runs list|show|compare`` can
render the store without loading the simulator.
"""


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
