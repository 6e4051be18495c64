"""Vectorized batch kernels over column segments.

The row executor pays full Python interpreter overhead per tuple:
unpack the record, build a dict, call ``predicate.matches``, copy the
projection.  The batch executor instead runs each step over a whole
:class:`~repro.columnar.store.ColumnSegment` at a time — list
comprehensions, :func:`itertools.compress`, and builtin ``sum``/``min``
/``max`` push the per-tuple work into C, so one interpreter step covers
N tuples.  Per-row dicts are built only for rows that survive the
filter (materialization is the last step, never the loop body).

:func:`compile_predicate` translates the :mod:`repro.query.predicates`
tree into a *kernel*: ``kernel(columns, n) -> list[bool]`` producing a
raw selection vector.  Leaf kernels ignore liveness; the executor ANDs
the segment's live mask in exactly once at the top, so ``Not`` composes
correctly (``Not(Eq)`` must not resurrect dead rows).  An unsupported
predicate type compiles to ``None`` and the caller falls back to the
row executor — the oracle path is always available.

Every per-segment result — the selection, the selected rows' master
dicts, the partial aggregate — is memoised in the segment's ``memo``
under the canonical predicate text (DESIGN.md §5h), and the combined
answer in the store's.  A write drops only the written segment's memo,
so :func:`scan_rows` and :func:`aggregate_segments` after a write
recompute that one segment and combine the rest as they were.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import add, is_not, itemgetter

from repro.columnar.store import remember
from repro.errors import QueryError
from repro.query.predicates import (
    And,
    ColumnEq,
    ColumnIn,
    ColumnRange,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.schema.schema import Schema

#: Aggregate ops understood by :func:`aggregate_segments`.
AGG_OPS = ("count", "sum", "min", "max", "avg")

#: ``_present(x)`` is ``x is not None``, called from C by ``filter``.
_present = partial(is_not, None)


def compile_predicate(predicate: Predicate, schema: Schema):
    """Compile a predicate tree into a selection-vector kernel.

    Returns ``kernel(columns, n) -> list[bool]`` or ``None`` when the
    tree contains a node the vectorized path doesn't understand (e.g. a
    user-defined predicate class); ``None`` means "use the row path".
    """
    if isinstance(predicate, TruePredicate):
        return lambda columns, n: [True] * n
    if isinstance(predicate, ColumnEq):
        if not schema.has_column(predicate.column):
            return None
        column, value = predicate.column, predicate.value
        return lambda columns, n: [v == value for v in columns[column]]
    if isinstance(predicate, ColumnIn):
        if not schema.has_column(predicate.column):
            return None
        column, values = predicate.column, frozenset(predicate.values)
        return lambda columns, n: [v in values for v in columns[column]]
    if isinstance(predicate, ColumnRange):
        if not schema.has_column(predicate.column):
            return None
        column, lo, hi = predicate.column, predicate.lo, predicate.hi
        if lo is not None and hi is not None:
            return lambda columns, n: [lo <= v < hi for v in columns[column]]
        if lo is not None:
            return lambda columns, n: [lo <= v for v in columns[column]]
        if hi is not None:
            return lambda columns, n: [v < hi for v in columns[column]]
        return lambda columns, n: [True] * n
    if isinstance(predicate, Not):
        inner = compile_predicate(predicate.inner, schema)
        if inner is None:
            return None
        return lambda columns, n: [not bit for bit in inner(columns, n)]
    if isinstance(predicate, (And, Or)):
        parts = [compile_predicate(part, schema) for part in predicate.parts]
        if any(part is None for part in parts):
            return None
        if not parts:  # all(()) is True, any(()) is False — match matches()
            result = isinstance(predicate, And)
            return lambda columns, n: [result] * n
        if isinstance(predicate, And):
            def kernel_and(columns, n):
                selection = parts[0](columns, n)
                for part in parts[1:]:
                    bits = part(columns, n)
                    selection = [a and b for a, b in zip(selection, bits)]
                return selection
            return kernel_and

        def kernel_or(columns, n):
            selection = parts[0](columns, n)
            for part in parts[1:]:
                bits = part(columns, n)
                selection = [a or b for a, b in zip(selection, bits)]
            return selection
        return kernel_or
    return None


def _segment_selection(segment, kernel, pkey: str) -> list[bool]:
    """The segment's selection vector (kernel output ANDed with
    liveness), memoised under the predicate's key."""
    selection = segment.memo.get(pkey)
    if selection is None:
        selection = kernel(segment.columns, segment.count)
        if segment.live_count != segment.count:
            selection = [a and b for a, b in zip(selection, segment.live)]
        remember(segment.memo, pkey, selection)
    return selection


def _selected_rows(segment, selection, project) -> list[dict[str, object]]:
    """Master row dicts of the selected positions, in position order."""
    if not project:  # zip() over no vectors would end at once
        return [{} for _ in compress(selection, selection)]
    columns = segment.columns
    values = zip(*[compress(columns[name], selection) for name in project])
    return list(map(dict, map(zip, repeat(project), values)))


def _selected_keys(segment, kernel, pkey: str) -> list[int]:
    """Heap keys of the selected positions, in position order."""
    key = ("keys", pkey)
    keys = segment.memo.get(key)
    if keys is None:
        selection = _segment_selection(segment, kernel, pkey)
        keys = remember(
            segment.memo, key, list(compress(segment.keys, selection))
        )
    return keys


def scan_rows(store, kernel, pkey: str, project):
    """Master row dicts of every selected row, in heap order.

    Each segment's rows are memoised under ``(project, predicate)``, so
    after a write only the written segment builds its rows again.
    """
    key = ("scan", project, pkey)
    per_segment = []
    for segment in store.segments:
        rows = segment.memo.get(key)
        if rows is None:
            selection = _segment_selection(segment, kernel, pkey)
            rows = remember(
                segment.memo, key, _selected_rows(segment, selection, project)
            )
        per_segment.append(rows)
    rows = list(chain.from_iterable(per_segment))
    if store.in_position_order:
        return rows
    # Some insert took a slot before rows inserted earlier: order the rows
    # by heap key (a sort of a few runs, since most rows are in place).
    keys = list(chain.from_iterable(
        [_selected_keys(s, kernel, pkey) for s in store.segments]
    ))
    in_heap_order = sorted(range(len(keys)), key=keys.__getitem__)
    return list(map(rows.__getitem__, in_heap_order))


def normalize_specs(specs, schema: Schema) -> list[tuple[str, str | None]]:
    """Validate ``(op, column)`` aggregate specs; ``count`` takes None."""
    normalized: list[tuple[str, str | None]] = []
    for op, column in specs:
        if op not in AGG_OPS:
            raise QueryError(f"unknown aggregate op {op!r}")
        if op == "count":
            normalized.append(("count", None))
            continue
        if column is None or not schema.has_column(column):
            raise QueryError(f"aggregate {op!r} needs an existing column")
        normalized.append((op, column))
    return normalized


def spec_label(op: str, column: str | None) -> str:
    return "count" if op == "count" else f"{op}({column})"


def _segment_partial(segment, kernel, pkey: str, specs) -> tuple:
    """``(count, value per spec)`` over the segment's selected rows: the
    count, or the sum (``sum``/``avg``), min or max of the spec's column;
    memoised under ``(specs, predicate)``."""
    key = ("aggregate", specs, pkey)
    folded = segment.memo.get(key)
    if folded is None:
        selection = _segment_selection(segment, kernel, pkey)
        columns = segment.columns
        count = sum(selection)
        values = [count]
        for op, column in specs:
            if op == "count":
                values.append(count)
                continue
            chunk = compress(columns[column], selection)
            if op == "min":
                values.append(min(chunk, default=None))
            elif op == "max":
                values.append(max(chunk, default=None))
            else:  # sum, avg
                values.append(sum(chunk))
        folded = remember(segment.memo, key, tuple(values))
    return folded


def aggregate_segments(store, kernel, pkey: str, specs) -> dict:
    """Fold the segments' partial aggregates, in segment order.

    Sums add per-segment sums from 0, as a fold over every selected
    position chunked by segment would; empty selections yield SQL-ish
    identities: ``count`` 0, ``sum`` 0, ``min``/``max``/``avg`` None —
    matching the row-path fold exactly.
    """
    partials = [
        _segment_partial(segment, kernel, pkey, specs)
        for segment in store.segments
    ]
    count = sum(map(itemgetter(0), partials))
    out: dict[str, object] = {}
    for index, (op, column) in enumerate(specs, 1):
        label = spec_label(op, column)
        if label in out:
            continue
        values = map(itemgetter(index), partials)
        if op == "count":
            out[label] = count
        elif op == "sum":
            out[label] = sum(values)
        elif op == "min":
            out[label] = min(filter(_present, values), default=None)
        elif op == "max":
            out[label] = max(filter(_present, values), default=None)
        else:  # avg
            total = sum(values)
            out[label] = (total / count) if count else None
    return out


def aggregate_rows(rows, specs) -> dict[str, object]:
    """Row-path oracle fold over an iterable of row dicts.

    Each spec column's values are collected once and folded per op: a sum
    adds left to right from 0 with ``+`` (``sum()`` of floats rounds
    differently from Python 3.12 on), and ``min``/``max`` keep the first
    winner under ``<``/``>``.
    """
    rows = list(rows)
    count = len(rows)
    values = {
        column: list(map(itemgetter(column), rows))
        for column in dict.fromkeys(c for _, c in specs if c is not None)
    }
    out: dict[str, object] = {}
    for op, column in specs:
        label = spec_label(op, column)
        if op == "count":
            out[label] = count
        elif op == "min":
            out[label] = min(values[column], default=None)
        elif op == "max":
            out[label] = max(values[column], default=None)
        elif op == "sum":
            out[label] = reduce(add, values[column], 0)
        else:  # avg
            total = reduce(add, values[column], 0)
            out[label] = (total / count) if count else None
    return out
