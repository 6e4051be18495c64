"""Physical schema migration: apply the §4.1 rewrite to a live table.

"...automated tools can infer true field types and value distributions to
modify internal field definitions and minimize encoding waste, or suggest
these optimizations to the user."

:func:`migrate_table` is the *modify* half: it profiles a populated table,
derives the minimal physical schema, rewrites every row into a new heap in
that schema — converting representations where the strategy demands it
(timestamp strings to epochs, flag ints to booleans, numeric strings to
ints) — and reports the byte savings.  Every conversion is verified
row-by-row through its inverse; only explicit granularity rewrites
(``year_granularity``) are lossy, and those verify the retained precision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.core.encoding.codecs import Timestamp14Codec
from repro.core.encoding.inference import TypeRecommendation, optimize_schema
from repro.errors import SchemaError
from repro.obs.registry import get_default_registry
from repro.query.table import Table
from repro.schema.record import pack_record_map, unpack_record_map
from repro.schema.schema import Schema
from repro.storage.heap import HeapFile

_TS14 = Timestamp14Codec()


@dataclass(frozen=True)
class ValueConverter:
    """Per-column value conversion for a representation change.

    ``forward`` maps a declared-form value to its physical form;
    ``backward`` inverts it.  ``lossy`` marks conversions that discard
    information on purpose (the §4 granularity rewrites), where only the
    retained granularity can be verified.
    """

    forward: Callable[[object], object]
    backward: Callable[[object], object]
    lossy: bool = False


def _identity(value: object) -> object:
    return value


def converter_for(rec: TypeRecommendation) -> ValueConverter:
    """The value conversion implied by one recommendation's strategy."""
    if rec.strategy == "timestamp_pack":
        return ValueConverter(
            forward=lambda v: _TS14.encode_one(str(v)),
            backward=lambda v: _TS14.decode_one(int(v)),  # type: ignore[arg-type]
        )
    if rec.strategy == "bool":
        return ValueConverter(
            forward=lambda v: bool(v),
            backward=lambda v: int(bool(v)),
        )
    if rec.strategy == "numeric_string":
        return ValueConverter(
            forward=lambda v: int(str(v)),
            backward=lambda v: str(v),
        )
    if rec.strategy == "year_granularity":
        return ValueConverter(
            forward=_year_of, backward=lambda v: int(v), lossy=True,  # type: ignore[arg-type]
        )
    # narrow_int / bitpack_int / char_trim / dictionary / keep / constant
    # preserve values exactly.
    return ValueConverter(forward=_identity, backward=_identity)


def _year_of(value: object) -> int:
    """Extract the year from any timestamp-family declared value."""
    if isinstance(value, str):
        if len(value) >= 4 and value[:4].isdigit():
            return int(value[:4])
        raise SchemaError(f"cannot extract a year from {value!r}")
    return time.gmtime(int(value)).tm_year  # type: ignore[arg-type]


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one table migration."""

    table: str
    rows: int
    old_record_bytes: int
    new_record_bytes: int
    old_heap_pages: int
    new_heap_pages: int

    @property
    def record_shrink_fraction(self) -> float:
        if self.old_record_bytes == 0:
            return 0.0
        return 1.0 - self.new_record_bytes / self.old_record_bytes

    @property
    def page_shrink_factor(self) -> float:
        if self.new_heap_pages == 0:
            return 1.0
        return self.old_heap_pages / self.new_heap_pages


def migrate_table(
    table: Table,
    target_heap: HeapFile,
    granularities: dict[str, str] | None = None,
    sample_rows: int | None = None,
) -> tuple[Table, Schema, MigrationReport]:
    """Rewrite ``table`` into ``target_heap`` under its inferred schema.

    Args:
        table: the populated source table (its declared schema is the
            "hint" being overridden).
        target_heap: destination heap (usually from a fresh pool/db).
        granularities: semantic hints per column (e.g. ``{"ts": "year"}``).
        sample_rows: profile only the first N rows (full data is still
            migrated); ``None`` profiles everything.

    Every migrated row is re-read and checked against the source, and the
    ``encoding.migrate.*`` counters land in the ambient registry.
    Returns ``(new_table, optimized_schema, report)``.  The new table has
    no indexes attached — index choice is workload policy, not migration.
    """
    rows = [row for _, row in _scan_rows(table)]
    if not rows:
        raise SchemaError(f"table {table.name!r} is empty; nothing to migrate")
    profile_rows = rows[:sample_rows] if sample_rows else rows
    column_values = {
        name: [row[name] for row in profile_rows]
        for name in table.schema.names
    }
    optimized, recommendations = optimize_schema(
        table.schema, column_values, granularities=granularities
    )
    converters = {rec.column: converter_for(rec) for rec in recommendations}
    identity = ValueConverter(forward=_identity, backward=_identity)
    new_table = Table(f"{table.name}__optimized", optimized, target_heap)
    for row in rows:
        converted = {
            name: converters.get(name, identity).forward(value)
            for name, value in row.items()
        }
        rid = target_heap.insert(pack_record_map(optimized, converted))
        back = unpack_record_map(optimized, target_heap.fetch(rid))
        for name, original in row.items():
            conv = converters.get(name, identity)
            if conv.lossy:
                # granularity rewrites: only the kept precision exists
                if conv.forward(original) != back[name]:
                    raise SchemaError(f"granularity mismatch in {name!r}")
            elif conv.backward(back[name]) != original:
                raise SchemaError(
                    f"lossy migration of {name!r}: "
                    f"{original!r} -> {back[name]!r}"
                )
    report = MigrationReport(
        table=table.name,
        rows=len(rows),
        old_record_bytes=table.schema.record_size,
        new_record_bytes=optimized.record_size,
        old_heap_pages=table.heap.num_pages,
        new_heap_pages=target_heap.num_pages,
    )
    reg = get_default_registry()
    reg.counter("encoding.migrate.tables").inc()
    reg.counter("encoding.migrate.rows").inc(report.rows)
    reg.counter("encoding.migrate.bytes_saved").inc(
        report.rows
        * max(0, report.old_record_bytes - report.new_record_bytes)
    )
    reg.counter("encoding.migrate.pages_reclaimed").inc(
        max(0, report.old_heap_pages - report.new_heap_pages)
    )
    return new_table, optimized, report


def _scan_rows(table: Table):
    for rid, record in table.heap.scan():
        yield rid, unpack_record_map(table.schema, record)
