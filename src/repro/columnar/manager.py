"""ColumnarManager: wiring, metrics, and the per-table binding.

One manager per database (built by ``Database.enable_columnar()``): it
owns a :class:`~repro.columnar.store.ColumnStore` per attached table,
the shared :class:`~repro.columnar.cache.IntermediateCache`, and the
``columnar.*`` metrics family.  Instruments register at construction so
the metric-name lint sees the family even before any columnar read.

Each attached table gets a :class:`TableColumnar` binding (the table's
``columnar`` attribute).  The binding is deliberately thin: the table
calls ``plan_scan`` first — a ``None`` plan means "predicate not
vectorizable, use the row path" and the table falls through *before*
opening its profiler bracket, so an operation is never double-bracketed.

Counts: the stores and the cache count into one
:class:`~repro.columnar.cache.ColumnarStats` that the registry adopts,
so :meth:`MetricsRegistry.reset` zeroes the family like every other and
:meth:`ColumnarManager.sync_gauges` sets only gauges.
"""

from __future__ import annotations

from repro.columnar.cache import ColumnarStats, IntermediateCache
from repro.columnar.executor import (
    aggregate_segments,
    compile_predicate,
    scan_rows,
)
from repro.columnar.store import SEGMENT_ROWS, ColumnStore
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
    """Owns the columnar mirrors, the fragment cache, and ``columnar.*``."""

    def __init__(
        self,
        database,
        registry: MetricsRegistry | None = None,
        segment_rows: int = SEGMENT_ROWS,
        cache_entries: int = 256,
    ) -> None:
        self._db = database
        self._segment_rows = segment_rows
        self._stores: dict[str, ColumnStore] = {}
        self.stats = ColumnarStats()
        self.cache = IntermediateCache(self.stats, cache_entries)
        #: Entries each segment's memo may hold: the fragment cache's bound.
        self.memo_entries = max(1, cache_entries)
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
        """Forget a dropped table: its mirror and every cached fragment, so
        a table re-created under the name starts from nothing."""
        self._stores.pop(table_name, None)
        self.cache.discard_table(table_name)
        self.sync_gauges()

    def clear_fragments(self) -> None:
        """Forget every reusable intermediate: the cached fragments and
        each segment's memo, so the next query runs its kernels afresh."""
        self.cache.clear()
        for store in self._stores.values():
            for segment in store.segments:
                segment.memo.clear()

    def current_csn(self) -> int:
        """The engine CSN *without* force-building a txn manager (a
        database that never opened a session has no commits: CSN 0)."""
        manager = self._db._txn_manager
        return manager.current_csn if manager is not None else 0

    # -- metrics -----------------------------------------------------------

    def count_fallback(self) -> None:
        self._m_fallbacks.inc()

    def sync_gauges(self) -> None:
        """Publish the stores' and the cache's levels."""
        stores = self._stores.values()
        self._m_rows.set(float(sum(s.live_rows for s in stores)))
        self._m_segments.set(float(sum(len(s.segments) for s in stores)))
        self._m_cache_entries.set(float(len(self.cache)))

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

    __slots__ = ("_manager", "_table", "store")

    def __init__(self, manager: ColumnarManager, table, store: ColumnStore):
        self._manager = manager
        self._table = table
        self.store = store

    # -- write notifications (called by Table after each applied write) ----

    def note_insert(self, rid, row) -> None:
        self.store.note_insert(rid, row)

    def note_update(self, rid, row) -> None:
        self.store.note_update(rid, row)

    def note_delete(self, rid) -> None:
        self.store.note_delete(rid)

    # -- planning ----------------------------------------------------------

    def plan_scan(self, predicate):
        """A kernel for ``predicate``, or None → row-path fallback."""
        kernel = compile_predicate(predicate, self._table.schema)
        if kernel is None:
            self._manager.count_fallback()
        return kernel

    # -- execution (called inside the table's profiler bracket) ------------

    def scan(self, kernel, predicate, project) -> list[dict[str, object]]:
        manager = self._manager
        store = self.store
        store.ensure_current()
        manager._m_scans.inc()
        project = tuple(project)
        pkey = predicate_key(predicate)
        key = ("scan", self._table.name, project, pkey)
        epoch, csn = store.epoch, manager.current_csn()
        cached = manager.cache.get(key, epoch, csn)
        if cached is None:
            cached = scan_rows(
                store, kernel, pkey, project, manager.memo_entries
            )
            manager.cache.put(key, epoch, csn, cached)
        manager.sync_gauges()
        # Serve copies: callers may mutate result dicts; the masters, shared
        # with the segments' memos, must stay pristine.
        return list(map(dict.copy, cached))

    def aggregate(self, kernel, predicate, specs) -> dict[str, object]:
        manager = self._manager
        store = self.store
        store.ensure_current()
        manager._m_aggregates.inc()
        specs = tuple(specs)
        pkey = predicate_key(predicate)
        key = ("aggregate", self._table.name, specs, pkey)
        epoch, csn = store.epoch, manager.current_csn()
        cached = manager.cache.get(key, epoch, csn)
        if cached is None:
            cached = aggregate_segments(
                store, kernel, pkey, specs, manager.memo_entries
            )
            manager.cache.put(key, epoch, csn, cached)
        manager.sync_gauges()
        return dict(cached)
