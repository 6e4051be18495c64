"""Tables: a heap plus its indexes, with write fan-out.

A :class:`Table` owns exactly one heap.  Indexes attach to it as either a
:class:`PlainIndex` (classic key → RID, heap access on every lookup) or a
:class:`~repro.core.index_cache.cached_index.CachedBTree` (the §2.1 cached
variant).  Writes go to the heap once and fan out to every index; updates
notify cached indexes so stale cache entries are invalidated through the
§2.1.2 predicate log.
"""

from __future__ import annotations

import struct
from itertools import starmap
from operator import itemgetter
from typing import Iterator, Union

from repro.btree.keycodec import codec_for_columns
from repro.btree.rebuild import rebuild_tree_from_heap
from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import (
    CachedBTree, LookupResult, ProjectionPlans)
from repro.errors import QueryError, ReproError
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracer import Tracer
from repro.query.predicates import (
    And, ColumnEq, ColumnIn, ColumnRange, Not, Or, Predicate, TruePredicate)
from repro.schema.record import (
    pack_record_map,
    unpack_fields,
    unpack_record,
    unpack_record_map,
)
from repro.schema.schema import Schema
from repro.storage.heap import HeapFile, Rid, RID_SIZE


class PlainIndex:
    """Classic uncached index: key → RID, tuple bytes fetched from the heap."""

    #: An index's kind, spelled once for both kinds: a plain index caches
    #: no fields, a :class:`CachedBTree` at least one.
    cached_fields: tuple[str, ...] = ()

    def __init__(
        self,
        tree: BPlusTree,
        heap: HeapFile,
        schema: Schema,
        key_columns: tuple[str, ...],
    ) -> None:
        if tree.value_size != RID_SIZE:
            raise QueryError("PlainIndex requires a RID-valued tree")
        self.tree = tree
        self._heap = heap
        self._schema = schema
        #: The key maker: key value or row -> ordered bytes, and back.
        self.key_codec = codec_for_columns(
            [schema.column(c) for c in key_columns]
        )
        self.encode_key = self.key_codec.encode_key
        self._plans = ProjectionPlans(schema, (), ())  # a leaf answers nothing
        self.lookups = 0
        self.heap_fetches = 0

    def insert_key(self, row: dict[str, object], rid: Rid) -> None:
        self.tree.insert(self.key_codec.encode_row(row), rid.to_bytes())

    def delete_key(self, row: dict[str, object]) -> None:
        self.tree.delete(self.key_codec.encode_row(row))

    def note_update(self, row: dict[str, object], changed: set[str]) -> None:
        """No cache, nothing to invalidate."""

    def find_rid(self, key_value: object) -> Rid | None:
        rid_bytes = self.tree.search(self.encode_key(key_value))
        return Rid.from_bytes(rid_bytes) if rid_bytes is not None else None

    def rebuild_from_heap(self) -> BPlusTree:
        """Reconstruct the whole index from the heap (corruption recovery).

        Index pages are redundant: every entry is recomputable from the
        heap, so a quarantined/corrupt node is healed by bulk-loading a
        fresh tree from a sorted heap scan.  The old tree's pages are
        orphaned (the simulated disk only grows, like a tablespace file).
        """
        self.tree = rebuild_tree_from_heap(
            self.tree, self._heap, self._schema, self.key_codec
        )
        return self.tree

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> LookupResult:
        project = self._plans[tuple(project) if type(project) is list else project][0]
        self.lookups += 1
        rid = self.find_rid(key_value)
        if rid is None:
            return LookupResult(None, found=False, from_cache=False)
        record = self._heap.fetch(rid)
        self.heap_fetches += 1
        return LookupResult(
            unpack_fields(self._schema, record, project),
            found=True,
            from_cache=False,
        )

    def lookup_many(
        self,
        key_values: list[object],
        project: tuple[str, ...] | None = None,
    ) -> list[LookupResult]:
        """Batched point lookups: shared index descents, page-ordered heap.

        Results align positionally with ``key_values`` and are identical
        to calling :meth:`lookup` per key; duplicate keys are resolved
        once.  The index is probed through
        :meth:`~repro.btree.tree.BPlusTree.lookup_many` (sorted probes,
        leaf-chain continuation) and the resulting RIDs are fetched
        through the page-ordered :meth:`~repro.storage.heap.HeapFile.fetch_many`.
        """
        project = self._plans[tuple(project) if type(project) is list else project][0]
        encoded = [self.encode_key(kv) for kv in key_values]
        if not encoded:
            return []
        self.lookups += len(set(encoded))
        rid_bytes = self.tree.lookup_many(encoded)
        rids = {
            key: Rid.from_bytes(value)
            for key, value in rid_bytes.items()
            if value is not None
        }
        records = self._heap.fetch_many(list(rids.values()))
        self.heap_fetches += len(rids)
        by_key: dict[bytes, LookupResult] = {}
        results: list[LookupResult] = []
        for key in encoded:
            result = by_key.get(key)
            if result is None:
                rid = rids.get(key)
                if rid is None:
                    result = LookupResult(None, found=False, from_cache=False)
                else:
                    result = LookupResult(
                        unpack_fields(self._schema, records[rid], project),
                        found=True,
                        from_cache=False,
                    )
                by_key[key] = result
            results.append(result)
        return results


AnyIndex = Union[PlainIndex, CachedBTree]

_EVERY_ROW = TruePredicate()  # one object: plan_scan memoises by object


def _columns_read(predicate: Predicate) -> tuple[str, ...] | None:
    """What ``predicate.matches`` reads; None: a foreign class may read any."""
    kind = type(predicate)
    if kind in (ColumnEq, ColumnIn, ColumnRange):
        return (predicate.column,)
    if kind not in (TruePredicate, Not, And, Or):
        return None
    parts = () if kind is TruePredicate else (
        (predicate.inner,) if kind is Not else predicate.parts)
    reads = [_columns_read(part) for part in parts]
    return None if None in reads else sum(reads, ())


class Table:
    """One heap, many indexes, consistent writes."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        heap: HeapFile,
        tracer: Tracer | None = None,
        wal=None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.heap = heap
        self._indexes: dict[str, AnyIndex] = {}
        #: The engine's op bracket — all this table knows about
        #: observation (DESIGN.md §5k); a table built without one gets
        #: an inert tracer of its own.
        self.tracer = tracer if tracer is not None else Tracer(NULL_REGISTRY)
        #: Optional repro.wal.log.WalWriter (duck-typed to avoid the
        #: import cycle).  When set, every heap mutation follows the
        #: reserve-LSN / apply-with-LSN / append-record protocol, and the
        #: failure-atomic compensation paths log their undo as ordinary
        #: redo records so replay always lands on the state the engine
        #: actually reached.
        self.wal = wal
        #: Write observers (e.g. FkJoinCaches keyed on this table as the
        #: join parent) notified after every update/delete so derived
        #: caches living *outside* this table's indexes can invalidate.
        self._write_observers: list = []
        #: Optional repro.columnar.manager.TableColumnar binding
        #: (duck-typed).  When set, scans and aggregates whose predicate
        #: compiles to a batch kernel run over the columnar mirror, and
        #: every applied write is mirrored through note_insert/update/
        #: delete — exactly the index fan-out contract.  When None, the
        #: hot path pays one attribute test.
        self.columnar = None

    # -- properties ----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.heap.num_records

    @property
    def index_names(self) -> list[str]:
        return list(self._indexes)

    @property
    def identity_index_name(self) -> str:
        """Name of the identity (primary-key) index — the first attached
        index.  The session layer resolves and tracks row versions
        through it, so its key columns must uniquely identify a row."""
        for name in self._indexes:
            return name
        raise QueryError(
            f"table {self.name!r} has no index to identify rows by"
        )

    def index(self, name: str) -> AnyIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise QueryError(
                f"table {self.name!r} has no index {name!r}"
            ) from None

    def attach_index(self, name: str, index: AnyIndex) -> None:
        """Register an index; existing rows are NOT back-filled (build the
        index before loading, or bulk-load it separately)."""
        if name in self._indexes:
            raise QueryError(f"index {name!r} already attached")
        self._indexes[name] = index

    def attach_write_observer(self, observer) -> None:
        """Register a write observer.

        Observers receive ``note_parent_update(row, changed)`` after every
        applied update and ``note_parent_delete(row)`` after every applied
        delete, with the *new* full row dict.  This is how caches derived
        from this table's rows but stored elsewhere (the §2.2 FkJoinCache
        keeps parent fields in child heap pages) hook into invalidation.
        """
        self._write_observers.append(observer)

    # -- writes ---------------------------------------------------------------

    def check_changes(self, changes: dict[str, object]) -> None:
        """Refuse an update that names a column the schema lacks, or a key
        column of *any* attached index (that would be a delete+insert,
        which callers do explicitly)."""
        changed = set(changes)
        for index in self._indexes.values():
            bad = changed & set(index.key_codec.columns)
            if bad:
                raise QueryError(
                    f"cannot update index key columns {sorted(bad)}"
                )
        unknown = changed - set(self.schema.names)
        if unknown:
            raise QueryError(
                f"table {self.name!r} has no columns {sorted(unknown)}"
            )

    def insert(self, row: dict[str, object], txn_id: int = 0) -> Rid:
        """Insert a row into the heap and every index.

        Failure-atomic: if an index insert fails (e.g. a corrupt index
        page), the heap row and any index keys already written are
        withdrawn before the error propagates, so a recovery layer that
        rebuilds indexes *from the heap* never resurrects a half-inserted
        row — and the insert can simply be retried.

        ``txn_id`` stamps the redo record with its owning transaction
        (0 = autocommit); the session layer passes it so crash recovery
        can tell committed writes from in-flight ones.
        """
        with self.tracer.span(
            "query.insert", profile=("insert", self.name),
            trace={"table": self.name},
        ):
            record = pack_record_map(self.schema, row)
            rid = self._wal_insert(record, txn_id=txn_id)
            inserted: list[AnyIndex] = []
            try:
                for index in self._indexes.values():
                    index.insert_key(row, rid)
                    inserted.append(index)
            except BaseException:
                for index in inserted:
                    try:
                        index.delete_key(row)
                    except ReproError:
                        # This index is the broken one; rebuild-from-heap
                        # will reconstruct it without the withdrawn row.
                        pass
                self._wal_delete(rid, txn_id=txn_id)
                raise
            if self.columnar is not None:
                self.columnar.note_insert(rid, row)
            return rid

    def update(
        self, index_name: str, key_value: object, changes: dict[str, object],
        txn_id: int = 0,
    ) -> bool:
        """Update non-key fields of the row found via ``index_name``.

        Refused by :meth:`check_changes` before anything is logged.
        """
        self.check_changes(changes)
        with self.tracer.span(
            "query.update",
            profile=("update", self.name, index_name, self.index(index_name)),
            trace={"table": self.name},
        ):
            rid = self._find_rid(index_name, key_value)
            if rid is None:
                return False
            row = unpack_record_map(self.schema, self.heap.fetch(rid))
            row.update(changes)
            self._wal_update(rid, pack_record_map(self.schema, row), txn_id=txn_id)
            if self.columnar is not None:
                self.columnar.note_update(rid, row)
            changed = set(changes)
            for index in self._indexes.values():
                index.note_update(row, changed)
            for observer in self._write_observers:
                observer.note_parent_update(row, changed)
            return True

    def delete(
        self, index_name: str, key_value: object, txn_id: int = 0
    ) -> bool:
        """Delete the row found via ``index_name`` from heap and indexes.

        Failure-atomic, mirroring :meth:`insert`: index entries go first
        and the heap row last, so while the heap still holds the row a
        rebuild-from-heap reproduces every index key.  If any step fails,
        already-deleted keys are re-inserted before the error propagates —
        the delete either happens completely or not at all, and can be
        retried verbatim after a heal.
        """
        with self.tracer.span(
            "query.delete",
            profile=("delete", self.name, index_name, self.index(index_name)),
            trace={"table": self.name},
        ):
            rid = self._find_rid(index_name, key_value)
            if rid is None:
                return False
            row = unpack_record_map(self.schema, self.heap.fetch(rid))
            removed: list[AnyIndex] = []
            try:
                for index in self._indexes.values():
                    index.delete_key(row)
                    removed.append(index)
                self._wal_delete(rid, txn_id=txn_id)
            except BaseException:
                for index in removed:
                    try:
                        index.insert_key(row, rid)
                    except ReproError:
                        # The broken index; rebuild-from-heap restores the
                        # key because the heap row is still in place.
                        pass
                raise
            if self.columnar is not None:
                self.columnar.note_delete(rid)
            for observer in self._write_observers:
                observer.note_parent_delete(row)
            return True

    # -- reads ------------------------------------------------------------------

    def lookup(
        self,
        index_name: str,
        key_value: object,
        project: tuple[str, ...] | None = None,
    ) -> LookupResult:
        """Point lookup through the named index."""
        index = self.index(index_name)
        with self.tracer.span(
            "query.lookup",
            profile=("lookup", self.name, index_name, index, project),
            trace={"table": self.name},
        ):
            return index.lookup(key_value, project)

    def lookup_many(
        self,
        index_name: str,
        key_values: list[object],
        project: tuple[str, ...] | None = None,
    ) -> list[LookupResult]:
        """Batched point lookups through the named index.

        The batched read fast path: probe keys are sorted so index
        descents are shared across adjacent keys, and heap RIDs are
        fetched page-ordered with each page pinned once (see
        ``BufferPool.fetch_many``).  Results align positionally with
        ``key_values`` and equal a per-key :meth:`lookup` loop.
        """
        index = self.index(index_name)
        batch = len(key_values)
        with self.tracer.span(
            "query.lookup_many",
            profile=("lookup_many", self.name, index_name, index, project, batch),
            trace={"table": self.name, "batch": batch},
        ):
            return index.lookup_many(list(key_values), project)

    def scan(
        self,
        predicate: Predicate | None = None,
        project: tuple[str, ...] | None = None,
        use_columnar: bool = True,
    ) -> Iterator[dict[str, object]]:
        """Full scan with optional filter and projection.

        With a columnar binding attached and a predicate the batch
        kernels understand, the whole scan is computed vectorized inside
        one profiler bracket and an iterator over the materialized rows
        is returned — output order and content are identical to the row
        path.  ``use_columnar=False`` forces the row executor (the
        oracle path differential tests compare against).

        On the row path with profiling enabled, the bracket stays open
        until the iterator is exhausted (or closed), so operations
        interleaved with a half-drained scan are charged to the scan's
        fingerprint.
        """
        predicate = predicate if predicate is not None else _EVERY_ROW
        project = project if project is not None else self.schema.names
        if use_columnar and self.columnar is not None:
            # Plan *before* opening the bracket: an unsupported predicate
            # falls through to the row path without a second bracket.
            plan = self.columnar.plan_scan(predicate)
            if plan is not None:
                # The columnar path materializes inside the bracket, so
                # it can be trace-spanned; the lazy row path cannot (a
                # span over a half-drained iterator would dangle) — its
                # spans come from the scatter-gather facade instead.
                with self.tracer.span(
                    "query.scan", timed=False,
                    profile=("scan", self.name, None, None, project),
                    trace={"table": self.name, "columnar": True},
                ):
                    return iter(self.columnar.scan(plan, project))
        if self.tracer.profiler is None:
            return self._scan_rows(predicate, project)
        return self._profiled_scan(predicate, project)

    def aggregate(
        self,
        specs: list[tuple[str, str | None]],
        predicate: Predicate | None = None,
        use_columnar: bool = True,
    ) -> dict[str, object]:
        """Aggregate over the (filtered) table: ``[("sum", "n"), ...]``.

        Supported ops: ``count`` (column ignored), ``sum``, ``min``,
        ``max``, ``avg``.  Returns ``{"sum(n)": ..., "count": ...}``.
        Empty selections yield count 0, sum 0, and None for min/max/avg.
        Runs vectorized over the columnar mirror when attached and the
        predicate compiles; otherwise folds over the row scan — both
        paths produce identical results.
        """
        # Lazy: repro.columnar ↔ repro.query would cycle at import time
        # (core.encoding's package init imports Table for migrate).
        from repro.columnar.executor import (
            aggregate_rows,
            normalize_specs,
            spec_label,
        )

        predicate = predicate if predicate is not None else _EVERY_ROW
        normalized = tuple(normalize_specs(specs, self.schema))
        labels = tuple(starmap(spec_label, normalized))
        plan = None
        trace: dict[str, object] = {"table": self.name}
        if use_columnar and self.columnar is not None:
            plan = self.columnar.plan_scan(predicate)
            if plan is not None:
                trace["columnar"] = True
        with self.tracer.span(
            "query.aggregate", timed=False,
            profile=("aggregate", self.name, None, None, labels),
            trace=trace,
        ):
            if plan is not None:
                return self.columnar.aggregate(plan, normalized)
            columns = tuple(dict.fromkeys(c for _, c in normalized if c))
            return aggregate_rows(self._scan_rows(predicate, columns), normalized)

    def _scan_rows(
        self, predicate: Predicate, project: tuple[str, ...]
    ) -> Iterator[dict[str, object]]:
        """Heap-order rows, decoded only as far as answer and predicate read."""
        names = self.schema.names
        codec, _, post = self.schema.codec
        project = tuple(project)
        fields = names if (reads := _columns_read(predicate)) is None else tuple(
            name for name in dict.fromkeys(project + reads) if name in names)
        steps = [(names[i], step) for i, step in post if names[i] in fields]
        # Two spares keep ``itemgetter``'s result a tuple; ``zip`` drops them.
        pick = itemgetter(*map(names.index, fields), 0, 0)
        whole = fields == project  # the decoded dict is the answer's row
        for record in self.heap.records():
            try:
                row = dict(zip(fields, pick(codec.unpack(record))))
            except struct.error:  # a wrong length: the codec's own refusal
                unpack_record(self.schema, record)
                raise
            for name, step in steps:
                row[name] = step(row[name])
            if predicate.matches(row):
                yield row if whole else {name: row[name] for name in project}

    def _profiled_scan(
        self, predicate: Predicate, project: tuple[str, ...]
    ) -> Iterator[dict[str, object]]:
        with self.tracer.span(
            "query.scan", timed=False,
            profile=("scan", self.name, None, None, project),
        ):
            try:
                yield from self._scan_rows(predicate, project)
            except GeneratorExit:
                # An abandoned iterator (explicit close() or GC of a
                # half-drained scan) must still close the profiler
                # bracket — otherwise every subsequent operation is
                # mis-charged to this scan's fingerprint — and must not
                # be absorbed as a query *error*: returning converts the
                # throw into a normal exit for the ``with`` block.
                return

    # -- internals ---------------------------------------------------------------

    def _wal_insert(self, record: bytes, txn_id: int = 0) -> Rid:
        """Heap insert under the WAL protocol.

        The LSN is reserved *before* the heap touches any page (the
        dirtied frame must carry it), and the redo record is appended
        immediately after — before any other pool activity — so the
        flush-before-evict rule can never see a stamped frame whose
        record is not at least buffered.  A heap failure abandons the
        LSN: gaps are legal.
        """
        if self.wal is None:
            return self.heap.insert(record)
        lsn = self.wal.reserve_lsn()
        rid = self.heap.insert(record, lsn=lsn)
        self.wal.log_insert(self.name, rid, record, lsn=lsn, txn_id=txn_id)
        return rid

    def _wal_update(self, rid: Rid, record: bytes, txn_id: int = 0) -> None:
        if self.wal is None:
            self.heap.update(rid, record)
            return
        lsn = self.wal.reserve_lsn()
        self.heap.update(rid, record, lsn=lsn)
        self.wal.log_update(self.name, rid, record, lsn=lsn, txn_id=txn_id)

    def _wal_delete(self, rid: Rid, txn_id: int = 0) -> None:
        if self.wal is None:
            self.heap.delete(rid)
            return
        lsn = self.wal.reserve_lsn()
        self.heap.delete(rid, lsn=lsn)
        self.wal.log_delete(self.name, rid, lsn=lsn, txn_id=txn_id)

    def _find_rid(self, index_name: str, key_value: object) -> Rid | None:
        return self.index(index_name).find_rid(key_value)
