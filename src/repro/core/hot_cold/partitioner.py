"""Hot/cold horizontal partitioning (§3.1, the "Partition" bar of Fig. 3).

Clustering (same heap, hot tuples at the tail) fixes heap locality but
leaves one giant index.  A dedicated hot *partition* goes further: the hot
tuples get their own heap **and their own index**, and because the hot set
is small, that index fits in RAM — the paper's 27.1 GB → 1.4 GB, 8.4×
effect.

:class:`HotColdPartitionedTable` is the generic mechanism: a layout over
two catalog :class:`~repro.query.table.Table`\\ s — each its own heap and
identity index — behind one lookup interface, plus demote/promote moves.
The layout keeps only placement; every byte it stores goes through
``Table``, so both sides have the WAL, failure-atomic writes,
``check_database`` and ``obs`` like any other table.  The Wikipedia
revision *policy* — "newly inserted revision tuples replace the
previously hot tuple for the same page, which is then moved to the cold
partition" — lives in ``workload.wikipedia``, driving this mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hot_cold.forwarding import ForwardingTable
from repro.errors import DuplicateKeyError, QueryError, StorageError
from repro.query.table import AnyIndex, Table
from repro.schema.record import unpack_record_map
from repro.storage.heap import Rid


@dataclass
class PartitionStats:
    """Size accounting for the paper's before/after comparison."""

    hot_rows: int
    cold_rows: int
    hot_index_bytes: int


def identity_index(table: Table) -> AnyIndex:
    """The index a layout keys ``table`` by: its identity index."""
    return table.index(table.identity_index_name)


class HotColdPartitionedTable:
    """A logical table stored as a hot ``Table`` plus a cold ``Table``."""

    def __init__(
        self,
        hot: Table,
        cold: Table,
        forwarding: ForwardingTable | None = None,
    ) -> None:
        """Refused before any row is written when the sides differ in
        schema or identity key (a moved row must land where a lookup by
        the same key finds it), or log to different WAL writers: a move
        is a dst insert, a src delete and a ``HOT_COLD_MOVE`` marker, and
        split across two logs it could not replay atomically."""
        if (
            hot.schema != cold.schema
            or identity_index(hot).key_codec.columns
            != identity_index(cold).key_codec.columns
        ):
            raise QueryError(
                f"tables {hot.name!r} and {cold.name!r} differ in schema "
                "or identity key"
            )
        if hot.wal is not cold.wal:
            raise QueryError(
                f"tables {hot.name!r} and {cold.name!r} log to different "
                "WAL writers"
            )
        self.schema = hot.schema
        self.hot = hot
        self.cold = cold
        self._forwarding = forwarding
        self.hot_lookups = 0
        self.cold_lookups = 0
        self.demotions = 0
        self.promotions = 0

    # -- data plane ------------------------------------------------------------

    def insert(self, row: dict[str, object], hot: bool = True) -> Rid:
        """Insert a row into the chosen partition."""
        return (self.hot if hot else self.cold).insert(row)

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> dict[str, object] | None:
        """Point lookup: hot partition first, cold on miss.

        The access skew the partitioning exploits means almost every
        lookup resolves in the (small, RAM-resident) hot partition.
        """
        result = self.hot.lookup(self.hot.identity_index_name, key_value, project)
        if result.found:
            self.hot_lookups += 1
            return result.values
        result = self.cold.lookup(
            self.cold.identity_index_name, key_value, project
        )
        if not result.found:
            return None
        self.cold_lookups += 1
        return result.values

    def warm_records(self, key_values: list[object], hot: bool) -> None:
        """Best-effort batched prefetch of move sources.

        A migration batch reads each source record once (the copy half of
        copy-then-delete); probing the keys through the source's batched
        lookup pulls the RIDs page-ordered and pins every source page
        once, so the per-key moves that follow hit the pool.  Faults here
        are swallowed — warming is an optimisation, and the per-key move
        path handles (and accounts) its own faults.
        """
        src = self.hot if hot else self.cold
        try:
            src.lookup_many(src.identity_index_name, key_values)
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
        return identity_index(self.hot).find_rid(key_value) is not None

    def stats(self) -> PartitionStats:
        hot_tree = identity_index(self.hot).tree
        return PartitionStats(
            hot_rows=hot_tree.num_entries,
            cold_rows=identity_index(self.cold).tree.num_entries,
            hot_index_bytes=hot_tree.size_bytes,
        )

    # -- internals ---------------------------------------------------------------

    def _move(self, key_value: object, src: Table, dst: Table) -> bool:
        """Relocate one row, copy-then-delete, failure-atomic for readers.

        The destination copy commits (``Table.insert``, itself
        failure-atomic) *before* ``Table.delete`` removes the source, so
        an I/O failure at any point leaves the partition map consistent
        for lookups: either the move never happened, or the row
        transiently exists in both partitions — and the hot-first
        :meth:`lookup` order resolves the duplicate to the correct bytes
        in both the demote and the promote direction.  A failed move can
        be retried verbatim: a copy that survived a failed delete is
        found by the retry's refused insert, which then completes the
        delete.  The move is then logged as a ``HOT_COLD_MOVE`` marker —
        a forensic trail of src→dst relocations that replay skips (the
        insert and delete it names are already redo records).
        """
        old_rid = identity_index(src).find_rid(key_value)
        if old_rid is None:
            return False
        row = unpack_record_map(src.schema, src.heap.fetch(old_rid))
        try:
            new_rid = dst.insert(row)
        except DuplicateKeyError:
            new_rid = identity_index(dst).find_rid(key_value)
            if new_rid is None:
                raise  # a duplicate on another index, not an earlier copy
        src.delete(src.identity_index_name, key_value)
        if self._forwarding is not None:
            self._forwarding.record_move(old_rid, new_rid)
        if src.wal is not None:
            src.wal.log_hot_cold_move(src.name, old_rid, new_rid)
        return True
