"""Shared experiment utilities: table printing, phase counts and oracle
hit rates."""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Sequence, TypeVar

from repro.util.table import format_table

S = TypeVar("S")


def print_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Print :func:`~repro.util.table.format_table`'s table and return it."""
    text = format_table(headers, rows, title)
    print(text)
    return text


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
