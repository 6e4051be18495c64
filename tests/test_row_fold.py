"""The row executor's aggregate fold against the per-row loop it replaced:
sums add left to right from 0 with ``+`` (float rounding follows that
order), and ``min``/``max`` keep the first of equal winners."""

from __future__ import annotations

import random

import pytest

from repro.columnar.executor import aggregate_rows, spec_label

SPECS = (
    ("count", None), ("sum", "a"), ("avg", "a"), ("min", "a"), ("max", "a"),
    ("sum", "b"), ("min", "b"), ("max", "b"), ("avg", "b"),
)


def _loop_fold(rows, specs):
    """The fold as a loop over rows and columns, value by value."""
    count = 0
    sums: dict[str, object] = {}
    mins: dict[str, object] = {}
    maxes: dict[str, object] = {}
    needed = {column for op, column in specs if column is not None}
    want_sum = {c for op, c in specs if op in ("sum", "avg")}
    want_min = {c for op, c in specs if op == "min"}
    want_max = {c for op, c in specs if op == "max"}
    for row in rows:
        count += 1
        for column in needed:
            value = row[column]
            if column in want_sum:
                sums[column] = sums.get(column, 0) + value
            if column in want_min:
                best = mins.get(column)
                if best is None or value < best:
                    mins[column] = value
            if column in want_max:
                best = maxes.get(column)
                if best is None or value > best:
                    maxes[column] = value
    out: dict[str, object] = {}
    for op, column in specs:
        label = spec_label(op, column)
        if op == "count":
            out[label] = count
        elif op == "sum":
            out[label] = sums.get(column, 0)
        elif op == "min":
            out[label] = mins.get(column)
        elif op == "max":
            out[label] = maxes.get(column)
        else:  # avg
            out[label] = (sums.get(column, 0) / count) if count else None
    return out


@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_fold_matches_the_row_loop(n):
    rng = random.Random(n)
    # floats of mixed magnitude (order-sensitive sums), and equal winners
    # of different types (1 vs 1.0), so the first winner is observable
    rows = [
        {"a": rng.choice([1e16, 1.0, -1e16, 0.1, 3]),
         "b": rng.choice([1, 1.0, 2, 2.0])}
        for _ in range(n)
    ]
    got = aggregate_rows(iter(rows), SPECS)
    want = _loop_fold(rows, SPECS)
    assert got == want
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
