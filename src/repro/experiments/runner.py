"""Shared experiment utilities: table printing, phase counts and oracle
hit rates."""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Sequence, TypeVar

S = TypeVar("S")


def print_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Format (and return) a fixed-width text table; also prints it."""
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
    text = "\n".join(lines)
    print(text)
    return text


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


def since(stats: S, baseline: S) -> S:
    """One phase's counts: the stats dataclass ``stats`` minus a
    ``copy(stats)`` taken when the phase began, field by field.  A
    component's counts are the registry's too, so a phase is measured from
    a baseline, never by zeroing them; rates then come from the same
    integer deltas a zeroed count would have read."""
    return replace(stats, **{
        f.name: getattr(stats, f.name) - getattr(baseline, f.name)
        for f in fields(stats)
    })


def oracle_hit_rate(n_items: int, alpha: float, cache_fraction: float) -> float:
    """Hit rate of a clairvoyant cache pinning the hottest items.

    Upper-bounds any online policy under a zipf(``alpha``) workload; the
    Fig-2a experiment plots the swap policy against this.
    """
    if n_items <= 0:
        # No items means no hits; guards the sum(weights) == 0 division.
        return 0.0
    if cache_fraction <= 0:
        return 0.0
    if cache_fraction >= 1:
        return 1.0
    k = max(1, int(n_items * cache_fraction))
    weights = [(r + 1) ** -alpha for r in range(n_items)]
    return sum(weights[:k]) / sum(weights)
