"""Record serde: pack/unpack Python tuples against a :class:`Schema`.

Records are dicts-in, dicts-out at the query layer but packed tuples at the
storage layer; these functions are the boundary.  All of them go through
the schema's one compiled ``Struct`` (:attr:`Schema.codec`): one C call
moves the whole record, then the few columns that need a step (strings,
odd integer widths) get it.  :func:`unpack_fields` decodes that way and
picks the named columns — cheaper for fixed-width records than decoding
column by column, with no per-projection state to keep.
"""

from __future__ import annotations

import struct
from typing import Mapping, Sequence

from repro.errors import SchemaError
from repro.schema.schema import Schema


def pack_record(schema: Schema, values: Sequence[object]) -> bytes:
    """Pack positional ``values`` into the schema's fixed-width layout.

    A row of exact column types goes straight to the ``Struct``, which
    refuses an int out of range; any other row, or one refused there, is
    validated column by column and raises the first column's refusal."""
    packer, pre, _ = schema.codec
    if tuple(map(type, values)) == packer.types:
        row = list(values)
        try:
            for i, step in pre:
                row[i] = step(row[i])
            for i, width in packer.texts:
                if len(row[i]) > width:
                    break
            else:
                return packer.pack(*row)
        except (struct.error, OverflowError, UnicodeEncodeError):
            pass
    if len(values) != len(schema):
        raise SchemaError(
            f"expected {len(schema)} values, got {len(values)}"
        )
    # ``struct`` alone is laxer than the types (it packs ``True`` into an
    # integer code and truncates over-long strings), so validate first.
    for col, value in zip(schema.columns, values):
        col.ctype.validate(value)
    if pre:
        values = list(values)
        for i, step in pre:
            values[i] = step(values[i])
    return packer.pack(*values)


def pack_record_map(schema: Schema, values: Mapping[str, object]) -> bytes:
    """Pack a ``{name: value}`` mapping; every column must be present."""
    try:
        ordered = [values[name] for name in schema.names]
    except KeyError:
        missing = sorted(set(schema.names) - set(values))
        raise SchemaError(f"missing values for columns {missing}") from None
    return pack_record(schema, ordered)


def unpack_record(schema: Schema, data: bytes) -> tuple[object, ...]:
    """Unpack a full record into a positional tuple."""
    if len(data) != schema.record_size:
        raise SchemaError(
            f"record is {len(data)} bytes, schema needs {schema.record_size}"
        )
    unpacker, _, post = schema.codec
    values = unpacker.unpack(data)
    if post:
        values = list(values)
        for i, step in post:
            values[i] = step(values[i])
        values = tuple(values)
    return values


def unpack_record_map(schema: Schema, data: bytes) -> dict[str, object]:
    """Unpack a full record into a ``{name: value}`` dict."""
    return dict(zip(schema.names, unpack_record(schema, data)))


def unpack_fields(
    schema: Schema, data: bytes, names: Sequence[str]
) -> dict[str, object]:
    """Unpack the record and keep only the named columns."""
    values = unpack_record(schema, data)
    position = schema._index
    try:
        return {name: values[position[name]] for name in names}
    except KeyError as exc:
        raise SchemaError(f"no column named {exc.args[0]!r}") from None


