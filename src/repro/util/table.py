"""Fixed-width text tables: the one formatter behind the experiment
drivers' printed tables and the ``repro.obs`` dashboards."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """A fixed-width text table: ``title``, the headers, a rule, the rows."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(v) for v in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"  # covers -0.0 too: no stray sign on zeros
        # Exact integers stored as floats print as integers (12.0 -> "12",
        # -3.0 -> "-3") instead of "12.000"; magnitude-based rules below
        # use abs() so negative values format like their positive twins.
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
