"""Vertical partitioning (§3.2): split columns so queries read fewer bytes.

The paper sketches two motivations: (a) separating cached from uncached
fields complements index caching — when a query needs a field not in the
cache, it should fault in only that field's bytes, not the whole tuple;
(b) splitting by update rate concentrates writes onto fewer pages.  And it
names the tension: reconstructing a row that spans fragments costs a merge.

``recommend_vertical_split`` is the analytic side: given projection
frequencies it proposes a two-fragment split and predicts bytes-read per
query.  :class:`VerticallyPartitionedTable` is the mechanism: one heap +
index per fragment, merged on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.keycodec import codec_for_columns
from repro.btree.tree import BPlusTree
from repro.errors import QueryError, SchemaError
from repro.schema.record import pack_record_map, unpack_fields
from repro.schema.schema import Schema
from repro.storage.heap import HeapFile, Rid, RID_SIZE


@dataclass(frozen=True)
class VerticalPartitioning:
    """A proposed split with its predicted economics."""

    hot_columns: tuple[str, ...]
    cold_columns: tuple[str, ...]
    bytes_per_query_unsplit: float
    bytes_per_query_split: float
    merge_fraction: float  # fraction of queries touching both fragments

def recommend_vertical_split(
    schema: Schema,
    key_columns: tuple[str, ...],
    query_classes: list[tuple[frozenset[str], float]],
    hot_threshold: float = 0.5,
) -> VerticalPartitioning:
    """Propose a hot/cold column split from projection frequencies.

    A column is *hot* when it appears in at least ``hot_threshold`` of the
    (frequency-weighted) queries.  Key columns are replicated into every
    fragment (they are the join glue), so they are excluded from the
    analysis.

    ``query_classes`` is a list of ``(projected_columns, frequency)``.
    """
    total_freq = sum(freq for _, freq in query_classes)
    if total_freq <= 0:
        raise QueryError("query classes must have positive total frequency")
    key_set = set(key_columns)
    appearance: dict[str, float] = {
        c.name: 0.0 for c in schema.columns if c.name not in key_set
    }
    for projected, freq in query_classes:
        for name in projected:
            if name in appearance:
                appearance[name] += freq
    hot = tuple(
        name for name, f in appearance.items() if f / total_freq >= hot_threshold
    )
    cold = tuple(name for name in appearance if name not in set(hot))

    # Predicted bytes read per lookup: unsplit reads the whole record; the
    # split reads the fragments the projection touches (key columns ride
    # along in each fragment record).
    key_bytes = sum(schema.column(c).size for c in key_columns)
    full_record = schema.record_size
    hot_record = key_bytes + sum(schema.column(c).size for c in hot)
    cold_record = key_bytes + sum(schema.column(c).size for c in cold)
    split_bytes = 0.0
    merge_freq = 0.0
    for projected, freq in query_classes:
        needs_hot = bool(set(projected) & set(hot))
        needs_cold = bool(set(projected) & set(cold))
        if not needs_hot and not needs_cold:
            needs_hot = True  # key-only projection: read the hot fragment
        cost = (hot_record if needs_hot else 0) + (cold_record if needs_cold else 0)
        split_bytes += freq * cost
        if needs_hot and needs_cold:
            merge_freq += freq
    return VerticalPartitioning(
        hot_columns=hot,
        cold_columns=cold,
        bytes_per_query_unsplit=full_record,
        bytes_per_query_split=split_bytes / total_freq,
        merge_fraction=merge_freq / total_freq,
    )


def recommend_update_split(
    schema: Schema,
    key_columns: tuple[str, ...],
    update_rates: dict[str, float],
    hot_threshold: float = 0.1,
) -> VerticalPartitioning:
    """Propose a split by *update* rate — §3.2's second motivation:
    "splitting the table based on the field update rate can increase the
    write density per page".

    Columns updated at least ``hot_threshold`` (fraction of operations)
    form the write-hot fragment; dirtying a page then invalidates only the
    narrow write-hot records, so each flushed page carries more changed
    bytes.  Returns the same :class:`VerticalPartitioning` structure, with
    the byte economics computed for a read-one-fragment workload (reads of
    the write-hot fragment, which is what an update touches).
    """
    key_set = set(key_columns)
    candidates = [c.name for c in schema.columns if c.name not in key_set]
    hot = tuple(
        name for name in candidates
        if update_rates.get(name, 0.0) >= hot_threshold
    )
    cold = tuple(name for name in candidates if name not in set(hot))
    key_bytes = sum(schema.column(c).size for c in key_columns)
    hot_record = key_bytes + sum(schema.column(c).size for c in hot)
    return VerticalPartitioning(
        hot_columns=hot,
        cold_columns=cold,
        bytes_per_query_unsplit=schema.record_size,
        bytes_per_query_split=float(hot_record),
        merge_fraction=0.0,  # updates touch only the write-hot fragment
    )


class VerticallyPartitionedTable:
    """A table stored as column-group fragments, merged on demand.

    Every fragment record stores the key columns plus the fragment's own
    columns; each fragment has its own RID index keyed on the key columns.
    A lookup touches only the fragments its projection needs and counts
    merges when it needs more than one.
    """

    def __init__(
        self,
        schema: Schema,
        key_columns: tuple[str, ...],
        fragments: tuple[tuple[str, ...], ...],
        heaps: list[HeapFile],
        trees: list[BPlusTree],
    ) -> None:
        if len(fragments) != len(heaps) or len(fragments) != len(trees):
            raise QueryError("one heap and one tree per fragment required")
        covered: set[str] = set(key_columns)
        for fragment in fragments:
            dup = covered & set(fragment)
            if dup:
                raise SchemaError(f"columns {sorted(dup)} in multiple fragments")
            covered |= set(fragment)
        missing = set(schema.names) - covered
        if missing:
            raise SchemaError(f"columns {sorted(missing)} not in any fragment")
        for tree in trees:
            if tree.value_size != RID_SIZE:
                raise QueryError("fragment indexes must be RID-valued")
        self._schema = schema
        #: The key maker: key value or row -> ordered bytes.
        self.key_codec = codec_for_columns(
            [schema.column(c) for c in key_columns]
        )
        self.encode_key = self.key_codec.encode_key
        self.fragments = fragments
        self._frag_schemas = [
            schema.project(list(key_columns) + list(frag)) for frag in fragments
        ]
        self._heaps = heaps
        self._trees = trees
        self.lookups = 0
        self.fragment_fetches = 0
        self.merges = 0
        self.bytes_read = 0

    def insert(self, row: dict[str, object]) -> None:
        """Insert a row, splitting it across every fragment."""
        key = self.key_codec.encode_row(row)
        for frag_schema, heap, tree in zip(
            self._frag_schemas, self._heaps, self._trees
        ):
            record = pack_record_map(
                frag_schema, {n: row[n] for n in frag_schema.names}
            )
            rid = heap.insert(record)
            tree.insert(key, rid.to_bytes())

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> dict[str, object] | None:
        """Fetch only the fragments the projection touches."""
        project = project if project is not None else self._schema.names
        key = self.encode_key(key_value)
        needed = [
            i
            for i, frag in enumerate(self.fragments)
            if set(project) & set(frag)
        ]
        if not needed:
            needed = [0]  # key-only projection: confirm existence cheaply
        self.lookups += 1
        result: dict[str, object] = {}
        for i in needed:
            rid_bytes = self._trees[i].search(key)
            if rid_bytes is None:
                return None
            record = self._heaps[i].fetch(Rid.from_bytes(rid_bytes))
            self.fragment_fetches += 1
            self.bytes_read += len(record)
            frag_schema = self._frag_schemas[i]
            wanted = [
                n for n in frag_schema.names
                if n in project or n in self.key_codec.columns
            ]
            result.update(unpack_fields(frag_schema, record, wanted))
        if len(needed) > 1:
            self.merges += 1
        return {name: result[name] for name in project if name in result}
