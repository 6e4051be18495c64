"""Hot/cold horizontal partitioning (§3.1, the "Partition" bar of Fig. 3).

Clustering (same heap, hot tuples at the tail) fixes heap locality but
leaves one giant index.  A dedicated hot *partition* goes further: the hot
tuples get their own heap **and their own index**, and because the hot set
is small, that index fits in RAM — the paper's 27.1 GB → 1.4 GB, 8.4×
effect.

:class:`HotColdPartitionedTable` is the generic mechanism: two
(heap, index) pairs behind one lookup interface, plus demote/promote moves.
The Wikipedia revision *policy* — "newly inserted revision tuples replace
the previously hot tuple for the same page, which is then moved to the
cold partition" — lives in ``workload.wikipedia``, driving this mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.keycodec import codec_for_columns
from repro.btree.tree import BPlusTree
from repro.core.hot_cold.forwarding import ForwardingTable
from repro.errors import QueryError, StorageError
from repro.schema.record import pack_record_map, unpack_fields
from repro.schema.schema import Schema
from repro.storage.heap import HeapFile, Rid, RID_SIZE


@dataclass
class Partition:
    """One physical partition: a heap and its primary index."""

    heap: HeapFile
    tree: BPlusTree

    @property
    def num_rows(self) -> int:
        return self.tree.num_entries

    @property
    def heap_bytes(self) -> int:
        return self.heap.size_bytes

    @property
    def index_bytes(self) -> int:
        return self.tree.size_bytes


@dataclass
class PartitionStats:
    """Size accounting for the paper's before/after comparison."""

    hot_rows: int
    cold_rows: int
    hot_index_bytes: int
    cold_index_bytes: int
    hot_heap_bytes: int
    cold_heap_bytes: int

class HotColdPartitionedTable:
    """A logical table stored as a hot partition plus a cold partition."""

    def __init__(
        self,
        schema: Schema,
        key_columns: tuple[str, ...],
        hot: Partition,
        cold: Partition,
        forwarding: ForwardingTable | None = None,
        wal=None,
        wal_label: str = "hot_cold",
    ) -> None:
        if hot.tree.value_size != RID_SIZE or cold.tree.value_size != RID_SIZE:
            raise QueryError("partition indexes must be RID-valued")
        self.schema = schema
        #: The key maker: key value or row -> ordered bytes.
        self.key_codec = codec_for_columns(
            [schema.column(c) for c in key_columns]
        )
        self.encode_key = self.key_codec.encode_key
        self.hot = hot
        self.cold = cold
        self._forwarding = forwarding
        # Optional WalWriter (duck-typed).  Partition heaps are not
        # catalog tables, so moves are logged as HOT_COLD_MOVE markers —
        # a forensic trail of src→dst relocations that replay skips (it
        # is not a heap-op kind), not a redo obligation.
        self._wal = wal
        self._wal_label = wal_label
        self.hot_lookups = 0
        self.cold_lookups = 0
        self.demotions = 0
        self.promotions = 0

    # -- data plane ------------------------------------------------------------

    def insert(self, row: dict[str, object], hot: bool = True) -> Rid:
        """Insert a row into the chosen partition."""
        part = self.hot if hot else self.cold
        record = pack_record_map(self.schema, row)
        rid = part.heap.insert(record)
        key = self.key_codec.encode_row(row)
        part.tree.insert(key, rid.to_bytes())
        return rid

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> dict[str, object] | None:
        """Point lookup: hot partition first, cold on miss.

        The access skew the partitioning exploits means almost every
        lookup resolves in the (small, RAM-resident) hot partition.
        """
        key = self.encode_key(key_value)
        project = project if project is not None else self.schema.names
        rid_bytes = self.hot.tree.search(key)
        if rid_bytes is not None:
            self.hot_lookups += 1
            record = self.hot.heap.fetch(Rid.from_bytes(rid_bytes))
            return unpack_fields(self.schema, record, project)
        rid_bytes = self.cold.tree.search(key)
        if rid_bytes is None:
            return None
        self.cold_lookups += 1
        record = self.cold.heap.fetch(Rid.from_bytes(rid_bytes))
        return unpack_fields(self.schema, record, project)

    def warm_records(self, key_values: list[object], hot: bool) -> None:
        """Best-effort batched prefetch of move sources.

        A migration batch reads each source record once (the copy half of
        copy-then-delete); probing the keys through the source index's
        batched lookup and pulling the RIDs page-ordered pins every
        source page once, so the per-key moves that follow hit the pool.
        Faults here are swallowed — warming is an optimisation, and the
        per-key move path handles (and accounts) its own faults.
        """
        src = self.hot if hot else self.cold
        encoded = [self.encode_key(kv) for kv in key_values]
        if not encoded:
            return
        try:
            found = src.tree.lookup_many(encoded)
            rids = [
                Rid.from_bytes(v) for v in found.values() if v is not None
            ]
            if rids:
                src.heap.fetch_many(rids)
        except StorageError:
            pass

    def demote(self, key_value: object) -> bool:
        """Move a row hot → cold (e.g. a superseded revision)."""
        moved = self._move(key_value, self.hot, self.cold)
        if moved:
            self.demotions += 1
        return moved

    def promote(self, key_value: object) -> bool:
        """Move a row cold → hot (e.g. a page became popular again)."""
        moved = self._move(key_value, self.cold, self.hot)
        if moved:
            self.promotions += 1
        return moved

    def is_hot(self, key_value: object) -> bool:
        return self.hot.tree.search(self.encode_key(key_value)) is not None

    def stats(self) -> PartitionStats:
        return PartitionStats(
            hot_rows=self.hot.num_rows,
            cold_rows=self.cold.num_rows,
            hot_index_bytes=self.hot.index_bytes,
            cold_index_bytes=self.cold.index_bytes,
            hot_heap_bytes=self.hot.heap_bytes,
            cold_heap_bytes=self.cold.heap_bytes,
        )

    # -- internals ---------------------------------------------------------------

    def _move(self, key_value: object, src: Partition, dst: Partition) -> bool:
        """Relocate one row, copy-then-delete, failure-atomic for readers.

        The destination copy commits (heap row + index entry) *before*
        anything is removed from the source, so an I/O failure at any
        point leaves the partition map consistent for lookups: either the
        move never happened, or the row transiently exists in both
        partitions — and the hot-first :meth:`lookup` order resolves the
        duplicate to the correct bytes in both the demote and the promote
        direction.  A failed move can be retried verbatim (the dst index
        insert is an upsert); at worst an aborted move leaks an orphaned,
        unindexed heap record — space, never answers.
        """
        key = self.encode_key(key_value)
        rid_bytes = src.tree.search(key)
        if rid_bytes is None:
            return False
        old_rid = Rid.from_bytes(rid_bytes)
        record = src.heap.fetch(old_rid)
        new_rid = dst.heap.insert(record)
        try:
            dst.tree.insert(key, new_rid.to_bytes(), upsert=True)
        except BaseException:
            # The copy never became visible; withdraw the heap row so the
            # abort leaves the destination exactly as it was.
            dst.heap.delete(new_rid)
            raise
        src.tree.delete(key)
        src.heap.delete(old_rid)
        if self._forwarding is not None:
            self._forwarding.record_move(old_rid, new_rid)
        if self._wal is not None:
            self._wal.log_hot_cold_move(self._wal_label, old_rid, new_rid)
        return True
