"""The Database facade: the library's friendly front door.

Wires a simulated disk, buffer pools, catalog, tables, and indexes into
one object so examples and downstream users don't assemble the plumbing
by hand.  Two pools by default:

* the **data pool** holds heap pages and is cost-hooked — this is where
  the paper's buffer-pool hit-rate economics play out;
* the **index pool** holds B+Tree pages; by default it shares the data
  pool, but experiments can split it (e.g. "the index is fully in memory"
  of Fig. 2b/2c, or the index-thrashes configuration of Fig. 3).
"""

from __future__ import annotations

import zlib

from repro.btree.keycodec import codec_for_columns
from repro.btree.tree import SPLIT_FRACTION, BPlusTree
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.invalidation import LOG_THRESHOLD, CacheInvalidation
from repro.core.index_cache.latching import LatchSimulator
from repro.errors import CatalogError, QueryError
from repro.obs.registry import MetricsRegistry, engine_registry
from repro.obs.tracer import Tracer
from repro.query.table import AnyIndex, PlainIndex, Table
from repro.schema.catalog import Catalog
from repro.schema.schema import Schema
from repro.sim.cost_model import CostModel
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RID_SIZE
from repro.util.rng import DeterministicRng
from repro.wal.log import GROUP_COMMIT_RECORDS, index_meta, table_meta

#: A cached index's latch contention unless told otherwise.  Neither it
#: nor the log threshold is logged, so :meth:`Database.restore_index`
#: rebuilds a cached index with both defaults.
LATCH_CONTENTION = 0.0


def require_empty_for_index(table, index_name: str) -> None:
    """There is no back-fill: an index is born on an empty table.

    ``table`` is anything with ``name`` and ``num_rows`` — the sharded
    facade asks for its whole table before it touches a shard.
    """
    if table.num_rows:
        raise QueryError(
            f"cannot create index {index_name!r}: table "
            f"{table.name!r} already has rows (no back-fill support)"
        )


class Database:
    """An embedded single-threaded database over the simulated substrate."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        data_pool_pages: int = 1024,
        index_pool_pages: int | None = None,
        cost_model: CostModel | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        fault_injector: "FaultInjector | None" = None,
        retry_policy: RetryPolicy | None = None,
        verify_checksums: bool = True,
        wal: "WalWriter | bool | None" = None,
        wal_group_commit: int = GROUP_COMMIT_RECORDS,
        disk: SimulatedDisk | None = None,
    ) -> None:
        """
        Args:
            page_size: bytes per page for every file in the database.
            data_pool_pages: buffer-pool capacity for heap pages.
            index_pool_pages: capacity of a *separate* index pool; ``None``
                shares the data pool (one unified buffer pool).
            cost_model: simulated-time model hooked into the data pool
                (and the index pool when separate) and the span tracer's
                clock; ``None`` creates a fresh :class:`CostModel`.
            seed: seed for cache policies and other stochastic choices.
            metrics: observability sink for every subsystem; ``None`` uses
                the ambient default registry if one is installed (see
                :func:`repro.obs.use_registry`), else a fresh
                :class:`MetricsRegistry`.  Pass
                :data:`repro.obs.NULL_REGISTRY` to switch metrics off.
            fault_injector: when given, the database runs on a
                :class:`~repro.faults.disk.FaultyDisk` driven by this
                injector instead of a pristine :class:`SimulatedDisk`.
            retry_policy: how the buffer pools respond to transient I/O
                faults; ``None`` uses the pools' default policy.
            verify_checksums: stamp a CRC32 on every page write-back and
                verify it on every pool miss (see ``repro.storage.page``).
            wal: durability.  ``True`` builds a fresh
                :class:`~repro.wal.log.WalWriter` (group commit of
                ``wal_group_commit`` records); a writer instance attaches
                as-is (how recovery hands a survived log back in);
                ``None``/``False`` runs without a WAL, as before.
            wal_group_commit: records per group-commit batch when
                ``wal=True``.
            disk: attach an existing disk instead of creating one — the
                crash-restart path, where the "hardware" (disk + WAL
                device) survives and only RAM is lost.  Mutually
                exclusive with ``fault_injector`` (pass a ready
                :class:`~repro.faults.disk.FaultyDisk` instead).
        """
        metrics = engine_registry(metrics)
        #: The registry every subsystem of this database emits into.
        self.metrics = metrics
        if disk is not None:
            if fault_injector is not None:
                raise QueryError(
                    "pass either an existing disk or a fault_injector, not both"
                )
            if disk.page_size != page_size:
                raise QueryError(
                    f"attached disk has page_size {disk.page_size}, "
                    f"database wants {page_size}"
                )
            self.disk = disk
        elif fault_injector is not None:
            from repro.faults.disk import FaultyDisk

            self.disk = FaultyDisk(page_size, fault_injector)
        else:
            self.disk = SimulatedDisk(page_size)
        if wal is True:
            from repro.wal.log import WalWriter

            wal = WalWriter(
                registry=metrics, group_commit_records=wal_group_commit
            )
        #: The write-ahead log writer, when durability is on.
        self.wal = wal or None
        # The cost model only accumulates simulated nanoseconds — never
        # consulted by the engine — so defaulting one in keeps behaviour
        # identical while giving the tracer a real clock.
        if cost_model is None:
            cost_model = CostModel()
        self.cost_model = cost_model
        #: Span tracer charging simulated time from the cost model; the
        #: engine's one op bracket (DESIGN.md §5k): profiler, trace
        #: collector and event journal are armed on it, never per table,
        #: and it holds the engine's shard id.
        self.tracer = Tracer(metrics, clock=cost_model)
        if self.wal is not None:
            self.wal.tracer = self.tracer
        self.data_pool = BufferPool(
            self.disk, data_pool_pages, cost_hook=cost_model,
            registry=metrics, retry_policy=retry_policy,
            verify_checksums=verify_checksums, wal=self.wal,
        )
        if index_pool_pages is None:
            self.index_pool = self.data_pool
        else:
            self.index_pool = BufferPool(
                self.disk, index_pool_pages, cost_hook=cost_model,
                registry=metrics, retry_policy=retry_policy,
                verify_checksums=verify_checksums, wal=self.wal,
            )
        self.catalog = Catalog()
        self._rng = DeterministicRng(seed)
        self._recovery = None
        self._txn_manager = None
        #: The columnar manager, once :meth:`enable_columnar` has run.
        self.columnar = None
        #: The adaptive controller, once :meth:`enable_adaptive` has run.
        self.adaptive = None
        #: Database-wide cache-fill admission fraction, pushed into every
        #: cached index (existing and future) by :meth:`set_cache_admission`.
        self.cache_admission = 1.0
        # Knob-state gauges (visible with no controller armed too).
        self._m_knob_data_pages = metrics.gauge("adaptive.knob.pool.data_pages")
        self._m_knob_data_pages.set(float(self.data_pool.capacity))
        if self.index_pool is not self.data_pool:
            self._m_knob_index_pages = metrics.gauge(
                "adaptive.knob.pool.index_pages"
            )
            self._m_knob_index_pages.set(float(self.index_pool.capacity))
        else:
            self._m_knob_index_pages = None

    # -- properties ----------------------------------------------------------

    @property
    def trace(self) -> "TraceCollector | None":
        """The §5j trace collector, once :meth:`enable_tracing` has run."""
        return self.tracer.trace

    @property
    def journal(self) -> "EventJournal | None":
        """The §5j event journal, once :meth:`enable_events` has run."""
        return self.tracer.journal

    @property
    def pool_partition(self) -> float:
        """Fraction of total pool frames assigned to heap pages.

        1.0 for a shared pool (no partition boundary exists).
        """
        if self.index_pool is self.data_pool:
            return 1.0
        total = self.data_pool.capacity + self.index_pool.capacity
        return self.data_pool.capacity / total

    # -- adaptive knob setters ----------------------------------------------

    def set_pool_partition(self, data_fraction: float) -> tuple[int, int]:
        """Move the frame boundary between the data and index pools.

        The total frame budget is preserved exactly: one pool shrinks
        (evicting surplus frames through the normal write-back path)
        before the other grows.  Each pool keeps at least one frame.
        Returns the new ``(data_pages, index_pages)`` split.
        """
        if self.index_pool is self.data_pool:
            raise QueryError(
                "pool partition requires split data/index pools "
                "(index_pool_pages=...)"
            )
        if not 0.0 < data_fraction < 1.0:
            raise QueryError(
                f"data_fraction must be in (0, 1), got {data_fraction}"
            )
        total = self.data_pool.capacity + self.index_pool.capacity
        data_pages = min(max(int(round(total * data_fraction)), 1), total - 1)
        index_pages = total - data_pages
        # Shrink first so the combined footprint never exceeds the budget.
        if data_pages < self.data_pool.capacity:
            self.data_pool.set_capacity(data_pages)
            self.index_pool.set_capacity(index_pages)
        else:
            self.index_pool.set_capacity(index_pages)
            self.data_pool.set_capacity(data_pages)
        self._m_knob_data_pages.set(float(data_pages))
        if self._m_knob_index_pages is not None:
            self._m_knob_index_pages.set(float(index_pages))
        return data_pages, index_pages

    def set_group_commit(self, group_commit_records: int) -> None:
        """Retune the WAL group-commit window (see
        :meth:`repro.wal.log.WalWriter.set_group_commit`)."""
        if self.wal is None:
            raise QueryError(
                "group-commit tuning requires a database built with wal="
            )
        self.wal.set_group_commit(group_commit_records)

    def set_cache_admission(self, fraction: float) -> None:
        """Set cache-fill admission on every cached index, now and future.

        Existing :class:`CachedBTree` indexes are retuned immediately;
        indexes created (or restored) later inherit the value at build
        time, so the knob survives DDL.
        """
        if not 0.0 <= fraction <= 1.0:
            raise QueryError(
                f"cache admission must be within [0, 1], got {fraction}"
            )
        self.cache_admission = float(fraction)
        for table in self.catalog.tables():
            for name in table.index_names:
                index = table.index(name)
                if index.cached_fields:
                    index.set_cache_admission(self.cache_admission)

    def enable_profiling(self, slow_log_size: int = 64) -> "QueryProfiler":
        """Attach a :class:`~repro.obs.profiler.QueryProfiler`.

        Armed on the engine's tracer (DESIGN.md §5k), so every table —
        existing and future — has each operation bracketed with
        registry/WAL snapshots and the deltas charged to the query's
        normalized fingerprint.  Strictly opt-in; idempotent: calling
        again returns the already-installed profiler.
        """
        if self.tracer.profiler is None:
            from repro.obs.profiler import QueryProfiler

            self.tracer.arm(profiler=QueryProfiler(
                self.metrics,
                clock=self.cost_model,
                wal=self.wal,
                slow_log_size=slow_log_size,
            ))
        return self.tracer.profiler

    def enable_columnar(self, segment_rows: int | None = None) -> "ColumnarManager":
        """Attach the vectorized columnar executor (DESIGN.md §5h).

        Every table — existing and future — gains a column-major mirror
        of its heap: scans and aggregates whose predicate compiles to a
        batch kernel run over whole column vectors (one interpreter step
        per segment instead of per tuple).  Each table's mirror memoises
        whole answers, keyed by verb, projection or specs and the
        predicate's canonical text, until the next write to the table;
        beneath them each segment memoises its own selections, rows and
        partial aggregates until that segment is written, so a query
        after a write re-runs its kernel on the written segment only.
        The row executor remains the oracle: unsupported predicates, or
        ``use_columnar=False``, take the unchanged row path.
        Idempotent; strictly opt-in (until this runs, the per-operation
        cost is a single ``is not None`` test).
        """
        if self.columnar is None:
            from repro.columnar.manager import ColumnarManager
            from repro.columnar.store import SEGMENT_ROWS

            self.columnar = ColumnarManager(
                registry=self.metrics,
                segment_rows=segment_rows or SEGMENT_ROWS,
            )
        for entry_name in self.catalog.table_names:
            self.columnar.attach(self.table(entry_name))
        return self.columnar

    def enable_adaptive(
        self,
        rules=None,
        knobs=None,
        bindings=None,
        sampler: "TelemetrySampler | None" = None,
    ) -> "AdaptiveController":
        """Attach an :class:`~repro.obs.adaptive.AdaptiveController`.

        The controller judges the windows of ``sampler`` — by default a
        fresh :class:`~repro.obs.sampler.TelemetrySampler` on this
        database's registry and cost model — as its driver feeds them:
        ``controller.evaluate(controller.sampler.sample())`` between
        operations judges the SLO rules over the window since the last
        sample and steps the registered knobs (see
        :mod:`repro.obs.adaptive` for the hysteresis contract).  No
        table operation calls it.

        Defaults wire the full loop for this database: the standard SLO
        rules (plus the WAL flush-amplification rule when a WAL is
        attached), :func:`~repro.obs.adaptive.database_knobs`, and
        :func:`~repro.obs.adaptive.default_bindings`.  Pass ``rules``/
        ``knobs``/``bindings`` explicitly to extend the loop (e.g. with
        hot/cold manager knobs).

        Strictly opt-in; idempotent: calling again returns the
        installed controller.
        """
        if self.adaptive is None:
            from repro.obs.adaptive import (
                AdaptiveController,
                WAL_FLUSH_AMPLIFICATION_RULE,
                database_knobs,
                default_bindings,
            )
            from repro.obs.health import DEFAULT_SLO_RULES
            from repro.obs.sampler import TelemetrySampler

            if sampler is None:
                sampler = TelemetrySampler(self.metrics, clock=self.cost_model)
            if rules is None:
                rules = DEFAULT_SLO_RULES
                if self.wal is not None:
                    rules = rules + (WAL_FLUSH_AMPLIFICATION_RULE,)
            if knobs is None:
                knobs = database_knobs(self)
            if bindings is None:
                bindings = default_bindings(knobs, rules)
            self.adaptive = AdaptiveController(
                sampler,
                rules=rules,
                knobs=knobs,
                bindings=bindings,
                registry=self.metrics,
                journal=self.journal,
            )
        return self.adaptive

    def enable_tracing(self) -> "TraceCollector":
        """Attach a §5j :class:`~repro.obs.trace.TraceCollector`.

        Armed on the engine's tracer (DESIGN.md §5k), so every table —
        existing and future — opens one trace per logical operation
        (auto-rooted at this facade); the WAL's group-commit flushes and
        session commit/abort nest inside whatever trace is active.
        Finished traces land in a bounded ring, exportable as JSON or
        Chrome ``trace_event`` format.  Idempotent; strictly opt-in.
        """
        if self.tracer.trace is None:
            from repro.obs.trace import TraceCollector

            self.attach_tracing(TraceCollector(
                clock=self.cost_model, registry=self.metrics
            ))
        return self.tracer.trace

    def enable_events(self) -> "EventJournal":
        """Attach a §5j :class:`~repro.obs.events.EventJournal`.

        Checkpoints, fault heal transitions, recovery phases, tuning
        actions, and SLO breach/clear transitions journal themselves as
        causally-ordered typed events; with tracing also enabled each
        event carries the active trace id.  Idempotent; strictly opt-in
        (one ``is None`` test per emit site until this runs).
        """
        if self.journal is None:
            from repro.obs.events import EventJournal

            self.attach_events(EventJournal(
                clock=self.cost_model,
                registry=self.metrics,
                trace_source=self.tracer.trace,
            ))
        return self.journal

    def attach_tracing(self, collector) -> None:
        """Adopt an externally owned trace collector (the sharded
        facade's); spans carry the tracer's ``shard``."""
        self.tracer.arm(trace=collector)
        if self.journal is not None:
            self.journal.trace_source = collector

    def attach_events(self, journal) -> None:
        """Adopt an externally owned event journal (the sharded facade's,
        or recovery's); events carry the tracer's ``shard``."""
        self.tracer.arm(journal=journal)
        if self.adaptive is not None:
            self.adaptive.journal = journal

    def checkpoint(self) -> int:
        """Append a fuzzy checkpoint record (see
        :meth:`repro.wal.log.WalWriter.checkpoint`); returns its LSN."""
        if self.wal is None:
            raise QueryError("checkpoint requires a database built with wal=")
        return self.wal.checkpoint(self)

    @property
    def recovery(self) -> "RecoveryManager":
        """Lazily built self-healing driver for this database.

        Wrap fallible operations as ``db.recovery.call(fn, ...)`` to heal
        corrupt index pages (rebuild from heap) and retry transparently.
        """
        if self._recovery is None:
            from repro.faults.recovery import RecoveryManager

            self._recovery = RecoveryManager(self, registry=self.metrics)
        return self._recovery

    def check(self) -> "CheckReport":
        """Run the :func:`repro.faults.checker.check_database` invariant
        walk over every table and index of this database."""
        from repro.faults.checker import check_database

        return check_database(self)

    # -- transactions ------------------------------------------------------------

    @property
    def txn_manager(self) -> "TransactionManager":
        """Lazily built MVCC transaction manager (see DESIGN.md §5g).

        One manager per database: it owns the CSN sequence, the
        per-tuple version store, and the write-claim table every
        session's conflict checks go through.
        """
        if self._txn_manager is None:
            from repro.txn.manager import TransactionManager

            self._txn_manager = TransactionManager(self, registry=self.metrics)
        return self._txn_manager

    def session(self) -> "Session":
        """Open a logical client session — ``begin()``, snapshot reads
        and writes, ``commit()``/``abort()`` with first-writer-wins
        conflict detection.  Works with or without a WAL (without one,
        commits are not durable but isolation semantics are identical).
        """
        return self.txn_manager.session()

    # -- DDL --------------------------------------------------------------------

    def create_table(
        self, name: str, schema: Schema, append_only: bool = False
    ) -> Table:
        """Create an empty table."""
        heap = HeapFile(self.data_pool, append_only=append_only)
        table = self._register_table(name, schema, heap)
        if self.wal is not None:
            self.wal.log_create_table(table_meta(name, schema, heap))
        return table

    def create_index(
        self,
        table_name: str,
        index_name: str,
        key_columns: tuple[str, ...],
        split_fraction: float = SPLIT_FRACTION,
    ) -> PlainIndex:
        """Create a classic (uncached) unique index on an empty table."""
        return self._add_index(table_name, index_name, key_columns, split_fraction)

    def create_cached_index(
        self,
        table_name: str,
        index_name: str,
        key_columns: tuple[str, ...],
        cached_fields: tuple[str, ...],
        invalidation_log_threshold: int = LOG_THRESHOLD,
        latch_contention: float = LATCH_CONTENTION,
    ) -> CachedBTree:
        """Create a §2.1 cached index on an empty table."""
        return self._add_index(
            table_name, index_name, key_columns, SPLIT_FRACTION,
            (cached_fields, invalidation_log_threshold, latch_contention),
        )

    # -- recovery DDL ------------------------------------------------------------
    #
    # The restore_* constructors are the WAL replayer's side door: they
    # re-register catalog objects over *existing* data (adopted heap
    # pages, indexes rebuilt from those heaps) and therefore skip both
    # the empty-table restriction and DDL logging — the log already
    # contains the original CREATE records.

    def restore_table(
        self,
        name: str,
        schema: Schema,
        page_ids: list[int],
        append_only: bool = False,
    ) -> Table:
        """Register a table over existing heap pages (WAL replay)."""
        heap = HeapFile(self.data_pool, append_only=append_only)
        heap.adopt_pages(list(page_ids))
        return self._register_table(name, schema, heap)

    def restore_index(
        self,
        table_name: str,
        index_name: str,
        key_columns: tuple[str, ...],
        cached_fields: tuple[str, ...],
        split_fraction: float,
    ) -> AnyIndex:
        """Recreate one logged index — plain when ``cached_fields`` is
        empty, §2.1 cached otherwise — and bulk-load it from the
        (restored) heap: indexes are derived data, never redone
        record-by-record.

        The arguments are what ``index_meta`` logs.  A cached index's log
        threshold and latch contention are not logged, so it comes back
        with :meth:`create_cached_index`'s defaults, and cold: cached
        tuple copies are the most derived data of all and are simply
        dropped by a crash.
        """
        return self._add_index(
            table_name, index_name, key_columns, split_fraction,
            (cached_fields, LOG_THRESHOLD, LATCH_CONTENTION)
            if cached_fields else None,
            restore=True,
        )

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog (pages are not reclaimed —
        the simulated disk only grows, like a real tablespace file).

        Refused on a WAL-armed database: the log has no DROP record, so
        recovery would bring the table back with its rows.  The columnar
        mirror and its memoised answers go with the table.
        """
        if self.wal is not None:
            raise QueryError(
                f"cannot drop table {name!r}: drops are not WAL-logged"
            )
        self.catalog.drop_table(name)
        if self.columnar is not None:
            self.columnar.detach(name)

    # -- access -----------------------------------------------------------------

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # -- internals ---------------------------------------------------------------

    def _register_table(self, name: str, schema: Schema, heap: HeapFile) -> Table:
        """Wrap ``heap`` as a table on the engine's tracer — whatever is
        armed there, now or later, observes it — and catalog it."""
        table = Table(name, schema, heap, tracer=self.tracer, wal=self.wal)
        self.catalog.register_table(table)
        if self.columnar is not None:
            self.columnar.attach(table)
        return table

    def _add_index(
        self, table_name, index_name, key_columns, split_fraction,
        cached=None, restore=False,
    ):
        """The one path every index is born on.

        ``cached`` is ``(cached_fields, invalidation_log_threshold,
        latch_contention)`` for a §2.1 cached index, ``None`` for a plain
        one.  ``restore`` bulk-loads the index from the heap instead of
        requiring an empty table, and logs no CREATE INDEX record.

        Index names are unique database-wide.  Every refusal comes before
        a tree page is allocated, an index attached or a record logged,
        so a refused CREATE INDEX leaves nothing behind.
        """
        table = self.table(table_name)
        if not restore:
            require_empty_for_index(table, index_name)
        for other in self.catalog.tables():
            if index_name in other.index_names:
                if other is table:
                    raise QueryError(f"index {index_name!r} already attached")
                raise CatalogError(f"index {index_name!r} already exists")
        codec = codec_for_columns(
            [table.schema.column(c) for c in key_columns]
        )
        tree = BPlusTree(
            self.index_pool, codec.size, RID_SIZE, name=index_name,
            split_fraction=split_fraction, registry=self.metrics,
        )
        if cached is None:
            index = PlainIndex(tree, table.heap, table.schema, key_columns)
        else:
            cached_fields, log_threshold, latch_contention = cached
            index = CachedBTree(
                tree,
                table.heap,
                table.schema,
                key_columns,
                cached_fields,
                # crc32, not hash(): str hashes are salted per process
                # (PYTHONHASHSEED), which made the swap policy's random
                # walk — and thus cache layout and metrics — differ
                # between otherwise identical runs.
                rng=self._rng.child(zlib.crc32(index_name.encode()) & 0xFFFF),
                invalidation=CacheInvalidation(
                    log_threshold, registry=self.metrics
                ),
                latch=LatchSimulator(latch_contention, self._rng.child(0x1A7C)),
                cost_model=self.cost_model,
                registry=self.metrics,
            )
            if self.cache_admission != 1.0:
                index.set_cache_admission(self.cache_admission)
        if restore:
            index.rebuild_from_heap()
        table.attach_index(index_name, index)
        if not restore and self.wal is not None:
            self.wal.log_create_index(index_meta(table_name, index_name, index))
        return index
