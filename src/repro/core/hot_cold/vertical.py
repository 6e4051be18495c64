"""Vertical partitioning (§3.2): split columns so queries read fewer bytes.

The paper sketches two motivations: (a) separating cached from uncached
fields complements index caching — when a query needs a field not in the
cache, it should fault in only that field's bytes, not the whole tuple;
(b) splitting by update rate concentrates writes onto fewer pages.  And it
names the tension: reconstructing a row that spans fragments costs a merge.

``recommend_vertical_split`` is the analytic side: given projection
frequencies it proposes a two-fragment split and predicts bytes-read per
query.  :class:`VerticallyPartitionedTable` is the mechanism: a layout
over one ``Table`` per fragment, merged on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hot_cold.partitioner import identity_index
from repro.errors import QueryError, SchemaError
from repro.query.table import Table
from repro.schema.schema import Schema


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

    Each fragment is a catalog :class:`~repro.query.table.Table` whose
    schema is the shared key plus the fragment's own columns, keyed by an
    identity index on that key; every byte goes through ``Table``.  A
    lookup touches only the fragments its projection needs and counts
    merges when it needs more than one.
    """

    def __init__(self, schema: Schema, fragments: tuple[Table, ...]) -> None:
        """Refused before any row is written when the fragments' identity
        keys differ (``QueryError``) or their columns do not partition
        ``schema``'s non-key columns (``SchemaError``)."""
        if not fragments:
            raise SchemaError("a vertical split needs at least one fragment")
        key = identity_index(fragments[0]).key_codec.columns
        covered: set[str] = set(key)
        columns = []
        for table in fragments:
            if identity_index(table).key_codec.columns != key:
                raise QueryError(
                    f"fragment {table.name!r} is not keyed by {list(key)}"
                )
            own = [n for n in table.schema.names if n not in key]
            dup = covered & set(own)
            if dup:
                raise SchemaError(f"columns {sorted(dup)} in multiple fragments")
            covered |= set(own)
            columns.append(own)
        missing = set(schema.names) - covered
        if missing:
            raise SchemaError(f"columns {sorted(missing)} not in any fragment")
        self.schema = schema
        self.fragments = fragments
        self._key = key
        self._columns = columns
        self.lookups = 0
        self.fragment_fetches = 0
        self.merges = 0
        self.bytes_read = 0

    def insert(self, row: dict[str, object]) -> None:
        """Insert a row, splitting it across every fragment."""
        for table in self.fragments:
            table.insert({n: row[n] for n in table.schema.names})

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> dict[str, object] | None:
        """Fetch only the fragments the projection touches."""
        project = project if project is not None else self.schema.names
        needed = [
            i for i, own in enumerate(self._columns) if set(project) & set(own)
        ]
        if not needed:
            needed = [0]  # key-only projection: confirm existence cheaply
        self.lookups += 1
        result: dict[str, object] = {}
        for i in needed:
            table = self.fragments[i]
            wanted = tuple(
                n for n in table.schema.names if n in project or n in self._key
            )
            found = table.lookup(table.identity_index_name, key_value, wanted)
            if not found.found:
                return None
            self.fragment_fetches += 1
            self.bytes_read += table.schema.record_size
            result.update(found.values)
        if len(needed) > 1:
            self.merges += 1
        return {name: result[name] for name in project if name in result}
