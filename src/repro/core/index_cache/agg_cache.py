"""Aggregate caching in index pages (§2.2 "Additional Directions").

"There are many other types of data that might be cached in index pages,
for example: statistics, pre-computed query results ..."

This module caches *per-leaf aggregates* (COUNT and SUM of one heap
field) in the same free-space windows the tuple cache uses.  A range
aggregate then walks the leaves: any leaf fully inside the range whose
aggregate item is present and fresh contributes in O(1) — no heap
fetches, no per-entry work.  Cold leaves are computed the slow way (one
heap fetch per entry) and their aggregate is cached for next time,
piggy-backing on query processing exactly like the tuple cache.

**Freshness.**  Aggregate items are only valid for the exact entry set
they summarised.  Rather than hooking every index mutation, the payload
embeds a fingerprint of the leaf — its slot count and record-region
bound — and a reader recomputes whenever the fingerprint mismatches.
Clobbering by index growth is already handled by the slot checksums.

Aggregate items share the window with tuple-cache items of a *different*
item size; to avoid aliasing, each cache instance claims the window
exclusively (one cache kind per index — a real system would partition the
window; we document the simplification).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.node import LeafNode
from repro.core.index_cache.cache import IndexCache
from repro.errors import QueryError
from repro.schema.record import unpack_fields
from repro.schema.schema import Schema
from repro.storage.heap import HeapFile, Rid
from repro.util.rng import DeterministicRng

#: Aggregate payload: fingerprint (slot_count u16 | free_hi u16) then
#: count u32 and sum i64.
_AGG_PAYLOAD_SIZE = 2 + 2 + 4 + 8


@dataclass
class AggregateStats:
    """Where range-aggregate work was answered from."""

    leaves_visited: int = 0
    leaves_from_cache: int = 0
    leaves_computed: int = 0
    partial_leaves: int = 0
    heap_fetches: int = 0


class AggregateCachingReader:
    """Range COUNT/SUM over one numeric heap field, leaf-aggregate cached."""

    def __init__(
        self,
        tree,
        heap: HeapFile,
        schema: Schema,
        field: str,
        rng: DeterministicRng | None = None,
    ) -> None:
        if not schema.has_column(field):
            raise QueryError(f"unknown aggregate field {field!r}")
        kind = schema.column(field).ctype.kind.value
        if kind not in ("int", "uint", "timestamp", "date", "year", "bool"):
            raise QueryError(f"field {field!r} is not integer-valued")
        self._tree = tree
        self._heap = heap
        self._schema = schema
        self._field = field
        self.cache = IndexCache(
            _AGG_PAYLOAD_SIZE,
            entry_size=tree.key_size + tree.value_size,
            rng=rng if rng is not None else DeterministicRng(0),
        )
        self.stats = AggregateStats()

    # -- payload encoding ------------------------------------------------------

    @staticmethod
    def _tid_for(page_id: int) -> bytes:
        """Tuple id namespace for aggregate items: tag byte + page id."""
        return b"\xa6GG" + page_id.to_bytes(4, "little") + b"\x00"

    @staticmethod
    def _encode(fingerprint: tuple[int, int], count: int, total: int) -> bytes:
        slot_count, free_hi = fingerprint
        return (
            slot_count.to_bytes(2, "little")
            + free_hi.to_bytes(2, "little")
            + count.to_bytes(4, "little")
            + total.to_bytes(8, "little", signed=True)
        )

    @staticmethod
    def _decode(payload: bytes) -> tuple[tuple[int, int], int, int]:
        return (
            (
                int.from_bytes(payload[0:2], "little"),
                int.from_bytes(payload[2:4], "little"),
            ),
            int.from_bytes(payload[4:8], "little"),
            int.from_bytes(payload[8:16], "little", signed=True),
        )

    # -- the aggregate -----------------------------------------------------------

    def range_aggregate(
        self, lo: bytes | None = None, hi: bytes | None = None
    ) -> tuple[int, int]:
        """``(count, sum)`` of the field over keys in ``[lo, hi)``.

        Walks the leaf chain once.  Interior leaves use (or fill) their
        cached aggregate; boundary leaves are computed per entry for just
        the in-range prefix/suffix.
        """
        pool = self._tree.pool
        page_id = (
            self._tree.find_leaf(lo) if lo is not None
            else self._leftmost_leaf()
        )
        count = 0
        total = 0
        while page_id is not None:
            with pool.page(page_id) as page:
                leaf = LeafNode(page, self._tree.key_size, self._tree.value_size)
                n = leaf.count
                self.stats.leaves_visited += 1
                start = 0
                if lo is not None:
                    start, _ = leaf.find(lo)
                end = n
                done = False
                if hi is not None and n:
                    end, _ = leaf.find(hi)
                    if end < n:
                        done = True
                if start == 0 and end == n and n > 0:
                    c, s = self._whole_leaf(page, leaf)
                else:
                    self.stats.partial_leaves += 1
                    c, s = self._compute(leaf, start, end)
                count += c
                total += s
                page_id = None if done else page.next_page
            lo = None  # only the first leaf is lower-bounded
        return count, total

    # -- internals ---------------------------------------------------------------

    def _whole_leaf(self, page, leaf: LeafNode) -> tuple[int, int]:
        fingerprint = (page.slot_count, page.free_window()[1])
        tid = self._tid_for(page.page_id)
        payload = self.cache.probe(page, tid)
        if payload is not None:
            cached_fp, count, total = self._decode(payload)
            if cached_fp == fingerprint:
                self.stats.leaves_from_cache += 1
                return count, total
        count, total = self._compute(leaf, 0, leaf.count)
        self.stats.leaves_computed += 1
        self.cache.insert(
            page, tid, self._encode(fingerprint, count, total)
        )
        return count, total

    def _compute(self, leaf: LeafNode, start: int, end: int) -> tuple[int, int]:
        count = 0
        total = 0
        for pos in range(start, end):
            rid = Rid.from_bytes(leaf.value_at(pos))
            record = self._heap.fetch(rid)
            self.stats.heap_fetches += 1
            value = unpack_fields(self._schema, record, [self._field])[self._field]
            count += 1
            total += int(value)  # type: ignore[arg-type]
        return count, total

    def _leftmost_leaf(self) -> int:
        leaf_ids = self._tree.leaf_page_ids
        if not leaf_ids:
            raise QueryError("tree has no leaves")
        return leaf_ids[0]
