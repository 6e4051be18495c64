"""Generative serde tests: random schemas, random matching values.

The fixed-schema round-trip tests pin known layouts; these generate
arbitrary schemas (any mix of physical types, any column order) and
assert the serde invariants hold for all of them:

* pack/unpack is the identity on values;
* partial unpack agrees with full unpack on every subset;
* in-place field overwrite touches exactly that field;
* the one compiled ``Struct`` per schema equals a per-column reference
  (both ``PhysicalType.pack/unpack`` and a hand-written ``int.to_bytes``
  ladder kept here for the purpose) byte for byte and value for value.
"""

from __future__ import annotations

import struct
from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.schema.record import (
    pack_record,
    pack_record_map,
    unpack_fields,
    unpack_record,
    unpack_record_map,
)
from repro.schema.schema import Schema
from repro.schema.types import (
    BOOL,
    DATE32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    TIMESTAMP32,
    TIMESTAMP_STR14,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    YEAR16,
    PhysicalType,
    TypeKind,
    char,
    varchar,
)

#: Odd integer widths have no ``struct`` code; the codec carries them as
#: ``Ns`` plus the type's own conversion.
UINT24 = PhysicalType(TypeKind.UINT, 3, "UINT24")
INT24 = PhysicalType(TypeKind.INT, 3, "INT24")

_FIXED_TYPES = [
    BOOL, INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64,
    FLOAT64, TIMESTAMP32,
    TIMESTAMP_STR14, DATE32, YEAR16, UINT24, INT24,
]


def _value_strategy(ptype):
    kind = ptype.kind.value
    if kind == "bool":
        return st.booleans()
    if kind in ("uint", "timestamp", "date", "year"):
        lo, hi = ptype.int_range()
        return st.integers(lo, hi)
    if kind == "int":
        lo, hi = ptype.int_range()
        return st.integers(lo, hi)
    if kind == "float":
        return st.floats(allow_nan=False)
    if kind == "char":
        return st.text(alphabet="abcXYZ09 _", max_size=ptype.size)
    if kind == "timestamp_string":
        return st.text(alphabet="0123456789", max_size=ptype.size)
    if kind == "varchar":
        return st.text(alphabet="abcXYZ09 _", max_size=ptype.size - 2)
    raise AssertionError(kind)


@st.composite
def schema_and_values(draw):
    types = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_FIXED_TYPES),
                st.integers(1, 20).map(char),
                st.integers(1, 20).map(varchar),
            ),
            min_size=1,
            max_size=8,
        )
    )
    schema = Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])
    values = tuple(draw(_value_strategy(t)) for t in types)
    return schema, values


@settings(max_examples=150, deadline=None)
@given(schema_and_values())
def test_round_trip_any_schema(pair):
    schema, values = pair
    data = pack_record(schema, values)
    assert len(data) == schema.record_size
    assert unpack_record(schema, data) == values


@settings(max_examples=100, deadline=None)
@given(schema_and_values(), st.data())
def test_partial_unpack_agrees_with_full(pair, data_strategy):
    schema, values = pair
    data = pack_record(schema, values)
    full = dict(zip(schema.names, values))
    subset = data_strategy.draw(
        st.lists(st.sampled_from(schema.names), unique=True)
    )
    partial = unpack_fields(schema, data, subset)
    assert partial == {name: full[name] for name in subset}


@settings(max_examples=100, deadline=None)
@given(schema_and_values(), st.data())
def test_overwrite_touches_only_target_field(pair, data_strategy):
    schema, values = pair
    buffer = bytearray(pack_record(schema, values))
    target = data_strategy.draw(st.sampled_from(schema.names))
    column = schema.column(target)
    new_value = data_strategy.draw(_value_strategy(column.ctype))
    row = unpack_record_map(schema, bytes(buffer))  # as Table.update does
    row[target] = new_value
    buffer[:] = pack_record_map(schema, row)
    result = dict(zip(schema.names, unpack_record(schema, bytes(buffer))))
    for name, original in zip(schema.names, values):
        if name == target:
            assert result[name] == new_value
        else:
            assert result[name] == original


# -- the compiled record codec against per-column references ------------------


def _reference_pack(ptype, value) -> bytes:
    """The encoding written out longhand, independent of ``PhysicalType``."""
    kind = ptype.kind.value
    if kind == "bool":
        return b"\x01" if value else b"\x00"
    if kind in ("uint", "timestamp", "date", "year"):
        return value.to_bytes(ptype.size, "little", signed=False)
    if kind == "int":
        return value.to_bytes(ptype.size, "little", signed=True)
    if kind == "float":
        return struct.pack("<d", float(value))
    raw = value.encode("utf-8")
    if kind == "varchar":
        return len(raw).to_bytes(2, "little") + raw.ljust(ptype.size - 2, b"\x00")
    return raw.ljust(ptype.size, b"\x00")


def _reference_unpack(ptype, data: bytes):
    kind = ptype.kind.value
    if kind == "bool":
        return data[0] != 0
    if kind in ("uint", "timestamp", "date", "year"):
        return int.from_bytes(data, "little", signed=False)
    if kind == "int":
        return int.from_bytes(data, "little", signed=True)
    if kind == "float":
        return struct.unpack("<d", data)[0]
    if kind == "varchar":
        return data[2 : 2 + int.from_bytes(data[:2], "little")].decode("utf-8")
    return data.rstrip(b"\x00").decode("utf-8")


@settings(max_examples=150, deadline=None)
@given(schema_and_values())
def test_compiled_codec_equals_per_column_reference(pair):
    schema, values = pair
    data = pack_record(schema, values)
    assert data == b"".join(
        col.ctype.pack(v) for col, v in zip(schema.columns, values)
    )
    assert data == b"".join(
        _reference_pack(col.ctype, v) for col, v in zip(schema.columns, values)
    )
    assert data == pack_record_map(schema, dict(zip(schema.names, values)))
    slices = [
        data[schema._offsets[col.name] :][: col.size] for col in schema.columns
    ]
    by_type = tuple(col.ctype.unpack(raw) for col, raw in zip(schema.columns, slices))
    by_hand = tuple(
        _reference_unpack(col.ctype, raw) for col, raw in zip(schema.columns, slices)
    )
    assert unpack_record(schema, data) == by_type == by_hand
    expected = dict(zip(schema.names, by_hand))
    assert unpack_record_map(schema, data) == expected
    # every subset, in both orders of a pair, through the partial unpack
    for r in range(len(schema.names) + 1):
        for subset in combinations(schema.names, r):
            picked = unpack_fields(schema, data, subset[::-1])
            assert picked == {name: expected[name] for name in subset}
            assert list(picked) == list(subset[::-1])


def test_odd_width_integers_round_trip_at_their_bounds():
    schema = Schema.of(("u", UINT24), ("i", INT24))
    for u, i in [(0, -(2**23)), (2**24 - 1, 2**23 - 1), (0x010203, -2)]:
        data = pack_record(schema, (u, i))
        assert len(data) == 6
        assert data == u.to_bytes(3, "little") + i.to_bytes(3, "little", signed=True)
        assert unpack_record(schema, data) == (u, i)


# -- pack_record against validate-then-pack, on near misses -------------------


class _IntSub(int):
    """An ``int`` subclass: ``validate`` takes it, its type is not ``int``."""


class _StrSub(str):
    """A ``str`` subclass, likewise."""


def _near_misses(ptype) -> list:
    """Values just outside (and just inside) ``ptype``'s domain."""
    kind = ptype.kind.value
    if kind == "bool":
        return [0, 1, _IntSub(1), 1.0, None]
    if kind in ("int", "uint", "timestamp", "date", "year"):
        lo, hi = ptype.int_range()
        return [lo - 1, lo, hi, hi + 1, True, False, _IntSub(hi), _IntSub(hi + 1),
                1.0, None, "1"]
    if kind == "float":
        return [0, -1, 10**400, -(10**400), float("nan"), -0.0, float("inf"),
                float("-inf"), True, _IntSub(2), None, "1.0"]
    limit = ptype.size - 2 if kind == "varchar" else ptype.size
    return ["a" * limit, "a" * (limit + 1), "é" * (limit // 2),
            "é" * (limit // 2) + "é", "€" * (limit // 3 + 1), "\ud800",
            _StrSub("b" * limit), b"a", None, 1]


def _valid_or_near_miss(ptype):
    return st.one_of(_value_strategy(ptype), st.sampled_from(_near_misses(ptype)))


@st.composite
def schema_and_near_misses(draw):
    schema, _ = draw(schema_and_values())
    values = tuple(draw(_valid_or_near_miss(col.ctype)) for col in schema.columns)
    return schema, values


def _outcome(fn, *args):
    """What ``fn(*args)`` comes to: its bytes, or its error's type and text."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc), str(exc)


def _validate_then_pack(schema, values) -> bytes:
    """The reference: every column validated in order, then packed alone."""
    for col, value in zip(schema.columns, values):
        col.ctype.validate(value)
    return b"".join(col.ctype.pack(v) for col, v in zip(schema.columns, values))


@settings(max_examples=400, deadline=None)
@given(schema_and_near_misses())
def test_pack_record_has_the_outcome_of_validate_then_pack(pair):
    schema, values = pair
    expected = _outcome(_validate_then_pack, schema, values)
    assert _outcome(pack_record, schema, values) == expected
    mapped = dict(zip(schema.names, values))
    assert _outcome(pack_record_map, schema, mapped) == expected


def test_fast_path_type_table_covers_every_kind():
    """Every kind has the exact type its fast path admits, and that type's
    zero value is one ``validate`` accepts for the kind."""
    from repro.schema.schema import _EXACT_TYPE

    assert set(_EXACT_TYPE) == set(TypeKind)
    for kind, exact in _EXACT_TYPE.items():
        PhysicalType(kind, 4, kind.name).validate(exact())
