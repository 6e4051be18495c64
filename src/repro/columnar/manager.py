"""ColumnarManager: wiring, metrics, and the per-table binding.

One manager per database (built by ``Database.enable_columnar()``): it
owns a :class:`~repro.columnar.store.ColumnStore` per attached table
and the ``columnar.*`` metrics family.  Instruments register at
construction so the metric-name lint sees the family even before any
columnar read.

Each attached table gets a :class:`TableColumnar` binding (the table's
``columnar`` attribute).  The binding is deliberately thin: the table
calls ``plan_scan`` first — a ``None`` plan means "predicate not
vectorizable, use the row path" and the table falls through *before*
opening its profiler bracket, so an operation is never double-bracketed.

Counts: the stores count into one
:class:`~repro.columnar.store.ColumnarStats` that the registry adopts,
so :meth:`MetricsRegistry.reset` zeroes the family like every other and
:meth:`ColumnarManager.sync_gauges` sets only gauges.
"""

from __future__ import annotations

from repro.columnar.executor import (
    aggregate_segments,
    compile_predicate,
    scan_rows,
)
from repro.columnar.store import SEGMENT_ROWS, ColumnarStats, ColumnStore, remember
from repro.obs.registry import MetricsRegistry, resolve_registry


def predicate_key(predicate) -> str:
    """Canonical text of a predicate tree, stable across processes.

    ``repr`` of the dataclass tree is deterministic except for
    ``ColumnIn``'s frozenset ordering, which follows hash order — so
    set members are rendered sorted by their own repr.
    """
    values = getattr(predicate, "values", None)
    if isinstance(values, frozenset):
        members = ",".join(sorted(repr(v) for v in values))
        return f"In({predicate.column!r},{{{members}}})"
    parts = getattr(predicate, "parts", None)
    if parts is not None:
        inner = ",".join(predicate_key(p) for p in parts)
        return f"{type(predicate).__name__}({inner})"
    inner = getattr(predicate, "inner", None)
    if inner is not None:
        return f"{type(predicate).__name__}({predicate_key(inner)})"
    return repr(predicate)


class ColumnarManager:
    """Owns the columnar mirrors and ``columnar.*``."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        segment_rows: int = SEGMENT_ROWS,
    ) -> None:
        self._segment_rows = segment_rows
        self._stores: dict[str, ColumnStore] = {}
        self.stats = ColumnarStats()
        registry = resolve_registry(registry)
        self._m_scans = registry.counter("columnar.scans")
        self._m_aggregates = registry.counter("columnar.aggregates")
        self._m_fallbacks = registry.counter("columnar.fallbacks")
        self._m_rows = registry.gauge("columnar.rows")
        self._m_segments = registry.gauge("columnar.segments")
        self._m_bytes_encoded = registry.gauge("columnar.bytes_encoded")
        self._m_bytes_raw = registry.gauge("columnar.bytes_raw")
        registry.adopt(self.stats, {
            "rebuilds": "columnar.rebuilds",
            "segments_sealed": "columnar.segments_sealed",
            "cache_hits": "columnar.cache.hits",
            "cache_misses": "columnar.cache.misses",
            "cache_invalidations": "columnar.cache.invalidations",
        })
        self._m_cache_entries = registry.gauge("columnar.cache.entries")

    # -- wiring ------------------------------------------------------------

    def attach(self, table) -> "TableColumnar":
        """Mirror ``table`` (idempotent) and hand it its binding."""
        store = self._stores.get(table.name)
        if store is None:
            store = ColumnStore(table, self.stats, self._segment_rows)
            self._stores[table.name] = store
        if table.columnar is None or table.columnar.store is not store:
            table.columnar = TableColumnar(self, table, store)
        return table.columnar

    def detach(self, table_name: str) -> None:
        """Forget a dropped table: its mirror and its memoised answers go
        with its store, so a table re-created under the name starts from
        nothing."""
        self._stores.pop(table_name, None)
        self.sync_gauges()

    def clear_fragments(self) -> None:
        """Forget every reusable intermediate: each store's answers and
        each segment's memo, so the next query runs its kernels afresh."""
        for store in self._stores.values():
            store.memo.clear()
            for segment in store.segments:
                segment.memo.clear()

    # -- metrics -----------------------------------------------------------

    def sync_gauges(self) -> None:
        """Publish the stores' levels."""
        rows = segments = answers = 0
        for store in self._stores.values():
            rows += store.live_rows
            segments += len(store.segments)
            answers += len(store.memo)
        self._m_rows.set(float(rows))
        self._m_segments.set(float(segments))
        self._m_cache_entries.set(float(answers))

    def refresh_encoding_stats(self) -> tuple[int, int]:
        """Publish ``columnar.bytes_encoded``/``bytes_raw``.

        Separate from :meth:`sync_gauges` because it (re-)encodes every
        dirty sealed segment — an O(rows) pass that must not ride on the
        per-scan hot path.  Returns ``(encoded, raw)``.
        """
        encoded = sum(s.encoded_bytes() for s in self._stores.values())
        raw = sum(s.raw_bytes() for s in self._stores.values())
        self._m_bytes_encoded.set(float(encoded))
        self._m_bytes_raw.set(float(raw))
        return encoded, raw


class TableColumnar:
    """One table's handle into the columnar subsystem."""

    __slots__ = ("_manager", "_table", "store", "_plans")

    def __init__(self, manager: ColumnarManager, table, store: ColumnStore):
        self._manager = manager
        self._table = table
        self.store = store
        self._plans: dict = {}  # id(predicate) -> plan; see plan_scan

    # -- write notifications (called by Table after each applied write) ----

    def note_insert(self, rid, row) -> None:
        self.store.note_insert(rid, row)

    def note_update(self, rid, row) -> None:
        self.store.note_update(rid, row)

    def note_delete(self, rid) -> None:
        self.store.note_delete(rid)

    # -- planning ----------------------------------------------------------

    def plan_scan(self, predicate):
        """``(predicate, kernel, predicate key)`` once per predicate object
        (kept, so its id is not reused), or None → row-path fallback."""
        plan = self._plans.get(id(predicate))
        if plan is None or plan[0] is not predicate:
            kernel = compile_predicate(predicate, self._table.schema)
            plan = remember(self._plans, id(predicate), (
                predicate, kernel, kernel and predicate_key(predicate)))
        if plan[1] is None:
            self._manager._m_fallbacks.inc()
            return None
        return plan

    # -- execution (called inside the table's profiler bracket) ------------

    def scan(self, plan, project) -> list[dict[str, object]]:
        manager = self._manager
        store = self.store
        store.ensure_current()
        manager._m_scans.inc()
        project = tuple(project)
        _, kernel, pkey = plan
        rows = store.answer(
            ("scan", project, pkey), scan_rows, kernel, pkey, project
        )
        manager.sync_gauges()
        # Serve copies: callers may mutate result dicts; the masters, shared
        # with the segments' memos, must stay pristine.
        return list(map(dict.copy, rows))

    def aggregate(self, plan, specs) -> dict[str, object]:
        manager = self._manager
        store = self.store
        store.ensure_current()
        manager._m_aggregates.inc()
        specs = tuple(specs)
        _, kernel, pkey = plan
        answer = store.answer(
            ("aggregate", specs, pkey), aggregate_segments, kernel, pkey, specs
        )
        manager.sync_gauges()
        return dict(answer)
