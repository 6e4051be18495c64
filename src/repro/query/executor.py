"""Execution extras: the §2.2 foreign-key join cache.

§2.2 ("Additional Directions") suggests the free-space-as-cache idea
generalises beyond index pages: "data pages can cache the results of
foreign key joins, to avoid additional disk accesses for join queries."

:class:`FkJoinCache` demonstrates exactly that, reusing the byte-level
:class:`~repro.core.index_cache.cache.IndexCache` machinery over *heap*
pages: when a query joins ``child.fk -> parent.pk``, the joined parent
fields are cached in the free window of the child tuple's own heap page.
The next join probe for that child tuple is answered from the page it was
already reading — no parent index descent, no parent heap access.

Consistency: the cache registers itself as a write observer on the parent
table, so every parent update/delete logs a predicate in a
:class:`~repro.core.index_cache.invalidation.CacheInvalidation` instance.
Each probe validates the child heap page against that log first
(:meth:`CacheInvalidation.validate_heap_page`), zeroing stale windows
before they can serve old parent fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.errors import QueryError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.query.table import PlainIndex, Table
from repro.schema.record import pack_record_map, unpack_fields, unpack_record
from repro.storage.heap import Rid
from repro.util.rng import DeterministicRng


@dataclass
class JoinStats:
    """Where join probes were answered from."""

    probes: int = 0
    cache_hits: int = 0
    parent_lookups: int = 0
    invalidations: int = 0

class FkJoinCache:
    """Caches parent join results in the child's heap-page free space."""

    def __init__(
        self,
        child: Table,
        parent: Table,
        parent_index_name: str,
        fk_column: str,
        parent_fields: tuple[str, ...],
        rng: DeterministicRng | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not child.schema.has_column(fk_column):
            raise QueryError(f"child has no column {fk_column!r}")
        parent_index = parent.index(parent_index_name)
        if not isinstance(parent_index, PlainIndex):
            raise QueryError("FkJoinCache expects a PlainIndex on the parent")
        if len(parent_index.key_codec.columns) != 1:
            raise QueryError("FkJoinCache supports single-column parent keys")
        if parent_index.tree.key_size > 8:
            raise QueryError(
                "FkJoinCache parent keys must encode to at most 8 bytes "
                "(the cache's tuple-id width)"
            )
        self._child = child
        self._parent = parent
        self._parent_index = parent_index
        self._parent_index_name = parent_index_name
        self._parent_key_column = parent_index.key_codec.columns[0]
        self._fk_column = fk_column
        self._payload_schema = parent.schema.project(list(parent_fields))
        # Heap pages have no "key region" in the B+Tree sense; treat the
        # child record as the K of the stable-point formula.
        self.cache = IndexCache(
            self._payload_schema.record_size,
            entry_size=child.schema.record_size,
            rng=rng,
            registry=registry,
        )
        self.invalidation = CacheInvalidation(registry=registry)
        parent.attach_write_observer(self)
        self.stats = JoinStats()
        resolve_registry(registry).adopt(self.stats, {
            "probes": "query.join.probes",
            "cache_hits": "query.join.hit",
            "parent_lookups": "query.join.parent_lookups",
            "invalidations": "query.join.stale_invalidations",
        })

    # -- parent write observation (invalidation) -----------------------------

    def note_parent_update(self, row: dict[str, object], changed: set) -> None:
        """Parent row updated: log a predicate if cached fields may be stale."""
        if self._parent_key_column in changed:
            # The parent key itself moved; entries cached under the old key
            # can no longer be identified from the new row.  Fall back to
            # the O(1) full invalidation.
            self.invalidation.invalidate_all()
            return
        if changed & set(self._payload_schema.names):
            self.invalidation.note_update(
                self._tid_for(row[self._parent_key_column])
            )

    def note_parent_delete(self, row: dict[str, object]) -> None:
        """Parent row deleted: cached join payloads for its key are stale."""
        self.invalidation.note_update(
            self._tid_for(row[self._parent_key_column])
        )

    # -- probes ----------------------------------------------------------------

    def _span(self, op: str, project: tuple[str, ...], batch: int = 1):
        """The op bracket for one join probe (profile only: joins have no
        ``span.*`` series and no trace span of their own).

        Joins ride on the child table's tracer (the child heap page is
        the one being read), fingerprinted against the *parent* index the
        probe would descend on a cache miss.  The internal parent
        ``lookup``/``lookup_many`` fallbacks run inside this bracket, so
        their page and WAL traffic is charged to the join — the depth
        guard keeps them from double-counting as standalone lookups.
        """
        return self._child.tracer.span(
            f"query.{op}", timed=False,
            profile=(op, self._child.name, self._parent_index_name,
                     self._parent_index, project, batch),
        )

    def join_fetch(
        self, child_rid: Rid, project: tuple[str, ...]
    ) -> dict[str, object]:
        """Fetch child fields joined with cached-or-looked-up parent fields.

        ``project`` may name columns from either side; parent columns must
        be among the configured ``parent_fields``.
        """
        with self._span("join", project):
            return self._join_fetch(child_rid, project)

    def _join_fetch(
        self, child_rid: Rid, project: tuple[str, ...]
    ) -> dict[str, object]:
        self.stats.probes += 1
        child_cols, parent_cols, fetch_cols = self._split_projection(project)

        pool = self._child.heap.pool
        with pool.page(child_rid.page_id) as page:
            record = page.read(child_rid.slot)
            row = unpack_fields(self._child.schema, record, fetch_cols)
            if not parent_cols:
                return {n: row[n] for n in project}
            self._validate(page)
            fk_value = row[self._fk_column]
            tid = self._tid_for(fk_value)
            payload = self.cache.probe(page, tid)
            if payload is not None:
                self.stats.cache_hits += 1
                parent_values = dict(
                    zip(
                        self._payload_schema.names,
                        unpack_record(self._payload_schema, payload),
                    )
                )
            else:
                result = self._parent.lookup(
                    self._parent_index_name, fk_value,
                    project=tuple(self._payload_schema.names),
                )
                self.stats.parent_lookups += 1
                if not result.found or result.values is None:
                    raise QueryError(
                        f"dangling foreign key {self._fk_column}={fk_value!r}"
                    )
                parent_values = dict(result.values)
                self.cache.insert(
                    page, tid, pack_record_map(self._payload_schema, parent_values)
                )
            merged = {**{n: row[n] for n in child_cols}, **parent_values}
            return {n: merged[n] for n in project}

    def join_fetch_many(
        self, child_rids: list[Rid], project: tuple[str, ...]
    ) -> list[dict[str, object]]:
        """Batched :meth:`join_fetch`: one pin per child page, batched parent
        lookups for the misses.

        Child pages are pinned page-ordered via
        :meth:`~repro.storage.buffer_pool.BufferPool.pages_many` and every
        cache is probed while its page is held; only the missing parent
        keys go through the parent's batched
        :meth:`~repro.query.table.Table.lookup_many`.  Results align
        positionally with ``child_rids`` and equal a per-RID
        :meth:`join_fetch` loop (modulo which probes hit the cache: a key
        missed twice in one batch still counts one parent lookup per
        probe, exactly like the scalar loop, but is filled once).
        """
        with self._span("join_many", project, batch=len(child_rids)):
            return self._join_fetch_many(child_rids, project)

    def _join_fetch_many(
        self, child_rids: list[Rid], project: tuple[str, ...]
    ) -> list[dict[str, object]]:
        child_cols, parent_cols, fetch_cols = self._split_projection(project)
        if not child_rids:
            return []

        pool = self._child.heap.pool
        results: list[dict[str, object] | None] = [None] * len(child_rids)
        # Probes the pinned pass could not answer: (position, child row,
        # fk value, cache tid, page_id).
        misses: list[tuple[int, dict[str, object], object, bytes, int]] = []
        with pool.pages_many(rid.page_id for rid in child_rids) as pages:
            for pos, rid in enumerate(child_rids):
                page = pages[rid.page_id]
                self.stats.probes += 1
                record = page.read(rid.slot)
                row = unpack_fields(self._child.schema, record, fetch_cols)
                if not parent_cols:
                    results[pos] = {n: row[n] for n in project}
                    continue
                self._validate(page)
                fk_value = row[self._fk_column]
                tid = self._tid_for(fk_value)
                payload = self.cache.probe(page, tid)
                if payload is None:
                    misses.append((pos, row, fk_value, tid, rid.page_id))
                    continue
                self.stats.cache_hits += 1
                parent_values = dict(
                    zip(
                        self._payload_schema.names,
                        unpack_record(self._payload_schema, payload),
                    )
                )
                merged = {**{n: row[n] for n in child_cols}, **parent_values}
                results[pos] = {n: merged[n] for n in project}

        if misses:
            # Parent lookups happen with no child pins held (the parent
            # descent needs buffer frames of its own) and are batched:
            # duplicate fk values resolve through one shared probe.
            looked_up = self._parent.lookup_many(
                self._parent_index_name,
                [fk_value for _, _, fk_value, _, _ in misses],
                project=tuple(self._payload_schema.names),
            )
            self.stats.parent_lookups += len(misses)
            by_page: dict[int, list[tuple[bytes, bytes]]] = {}
            filled: set[tuple[int, bytes]] = set()
            for (pos, row, fk_value, tid, page_id), result in zip(
                misses, looked_up
            ):
                if not result.found or result.values is None:
                    raise QueryError(
                        f"dangling foreign key {self._fk_column}={fk_value!r}"
                    )
                parent_values = dict(result.values)
                merged = {**{n: row[n] for n in child_cols}, **parent_values}
                results[pos] = {n: merged[n] for n in project}
                if (page_id, tid) not in filled:
                    filled.add((page_id, tid))
                    by_page.setdefault(page_id, []).append(
                        (tid, pack_record_map(self._payload_schema, parent_values))
                    )
            for page_id in sorted(by_page):
                with pool.page(page_id) as page:
                    for tid, packed in by_page[page_id]:
                        self.cache.insert(page, tid, packed)
        return results  # type: ignore[return-value]

    # -- internals -----------------------------------------------------------

    def _split_projection(
        self, project: tuple[str, ...]
    ) -> tuple[list[str], list[str], list[str]]:
        """Split ``project`` into child/parent columns plus the unpack list.

        The unpack list always carries the FK column exactly once — naming
        it in ``project`` must not duplicate it (``unpack_fields`` would
        reject the repeat).
        """
        child_cols = [n for n in project if self._child.schema.has_column(n)]
        parent_cols = [n for n in project if n not in child_cols]
        unknown = [
            n for n in parent_cols if not self._payload_schema.has_column(n)
        ]
        if unknown:
            raise QueryError(f"columns {unknown} not in cached parent fields")
        fetch_cols = list(child_cols)
        if self._fk_column not in fetch_cols:
            fetch_cols.append(self._fk_column)
        return child_cols, parent_cols, fetch_cols

    def _tid_for(self, fk_value: object) -> bytes:
        # Tuple id for the cache: the parent key in index encoding,
        # NUL-padded to the cache's fixed 8-byte tuple-id width.
        return self._parent_index.encode_key(fk_value).ljust(8, b"\x00")

    def _validate(self, page) -> None:
        if self.invalidation.validate_heap_page(page, self.cache):
            self.stats.invalidations += 1
