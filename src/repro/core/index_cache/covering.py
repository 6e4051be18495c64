"""Covering index: the alternative the paper argues against (§2.1).

"As an alternative to a caching-based approach, one could imagine using
covering indexes (i.e., adding all of the fields used in any query to the
index key), which can also avoid accessing the heap to answer queries.
However, covering indices still store cold data, waste space and bloat
the index size, which wastes more total bytes, and increases pressure on
RAM."

We implement it so the claim can be measured (ablation A5): a
:class:`CoveringIndex` stores the projected fields *inside the leaf
entry's value* (RID + covered fields), for every tuple, hot or cold.
Lookups never touch the heap for covered projections — but every leaf
holds covered bytes for cold tuples too, so the index is strictly larger
than a plain index and there is no free window left to recycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.keycodec import codec_for_columns
from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import LookupResult
from repro.errors import QueryError
from repro.schema.record import pack_record_map, unpack_fields, unpack_record
from repro.schema.schema import Schema
from repro.storage.heap import HeapFile, Rid, RID_SIZE


@dataclass
class CoveringIndexStats:
    """Lookup accounting, mirroring :class:`CachedIndexStats`."""

    lookups: int = 0
    found: int = 0
    answered_from_index: int = 0
    heap_fetches: int = 0


class CoveringIndex:
    """Unique index whose leaf values carry RID + covered fields."""

    def __init__(
        self,
        tree: BPlusTree,
        heap: HeapFile,
        schema: Schema,
        key_columns: tuple[str, ...],
        covered_fields: tuple[str, ...],
    ) -> None:
        if not covered_fields:
            raise QueryError("covering index needs at least one covered field")
        overlap = set(key_columns) & set(covered_fields)
        if overlap:
            raise QueryError(
                f"fields {sorted(overlap)} are index keys already"
            )
        self.tree = tree
        self._heap = heap
        self._schema = schema
        self.covered_fields = tuple(covered_fields)
        #: The key maker: key value or row -> ordered bytes, and back.
        self.key_codec = codec_for_columns(
            [schema.column(c) for c in key_columns]
        )
        self.encode_key = self.key_codec.encode_key
        if self.key_codec.size != tree.key_size:
            raise QueryError(
                f"tree key size {tree.key_size} != codec size {self.key_codec.size}"
            )
        self._covered_schema = schema.project(list(covered_fields))
        expected_value = RID_SIZE + self._covered_schema.record_size
        if tree.value_size != expected_value:
            raise QueryError(
                f"tree value size must be {expected_value} "
                f"(rid + covered fields), got {tree.value_size}"
            )
        self._answerable = set(key_columns) | set(covered_fields)
        self.stats = CoveringIndexStats()

    @classmethod
    def value_size_for(
        cls, schema: Schema, covered_fields: tuple[str, ...]
    ) -> int:
        """Tree value size needed for a given covered-field set."""
        return RID_SIZE + schema.project(list(covered_fields)).record_size

    # -- index maintenance (the heap row is Table's) -------------------------

    def _encode_value(self, rid: Rid, row: dict[str, object]) -> bytes:
        covered = pack_record_map(
            self._covered_schema,
            {n: row[n] for n in self._covered_schema.names},
        )
        return rid.to_bytes() + covered

    def insert_key(self, row: dict[str, object], rid: Rid) -> None:
        """Index entry carrying the covered copy (Table fan-out protocol)."""
        self.tree.insert(
            self.key_codec.encode_row(row), self._encode_value(rid, row)
        )

    def delete_key(self, row: dict[str, object]) -> None:
        self.tree.delete(self.key_codec.encode_row(row))

    def note_update(self, row: dict[str, object], changed: set[str]) -> None:
        """Covered copies are *authoritative duplicates*: unlike the cache,
        they must be synchronously rewritten on update — one of the hidden
        costs of covering indexes."""
        if changed & set(self.covered_fields):
            key = self.key_codec.encode_row(row)
            value = self.tree.search(key)
            if value is not None:
                rid = Rid.from_bytes(value[:RID_SIZE])
                self.tree.update_value(key, self._encode_value(rid, row))

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> LookupResult:
        """Point lookup; covered projections never touch the heap."""
        project = project if project is not None else self._schema.names
        for name in project:
            if not self._schema.has_column(name):
                raise QueryError(f"unknown projected column {name!r}")
        key = self.encode_key(key_value)
        self.stats.lookups += 1
        value = self.tree.search(key)
        if value is None:
            return LookupResult(None, found=False, from_cache=False)
        self.stats.found += 1
        if set(project) <= self._answerable:
            self.stats.answered_from_index += 1
            values = self._assemble(key, value[RID_SIZE:], project)
            return LookupResult(values, found=True, from_cache=True)
        rid = Rid.from_bytes(value[:RID_SIZE])
        record = self._heap.fetch(rid)
        self.stats.heap_fetches += 1
        return LookupResult(
            unpack_fields(self._schema, record, project),
            found=True,
            from_cache=False,
        )

    # -- internals ---------------------------------------------------------------

    def _assemble(
        self, key: bytes, covered: bytes, project: tuple[str, ...]
    ) -> dict[str, object]:
        values = self.key_codec.decode_columns(key)
        values.update(
            zip(
                self._covered_schema.names,
                unpack_record(self._covered_schema, covered),
            )
        )
        return {name: values[name] for name in project}
