"""Record serde: full, mapped, partial, and in-place field overwrite."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.schema.record import (
    pack_record,
    pack_record_map,
    unpack_fields,
    unpack_record,
    unpack_record_map,
)
from repro.schema.schema import Schema
from repro.schema.types import BOOL, FLOAT64, INT32, UINT64, char, varchar

SCHEMA = Schema.of(
    ("id", UINT64),
    ("score", INT32),
    ("active", BOOL),
    ("tag", char(8)),
)


def test_round_trip_positional():
    values = (7, -42, True, "hi")
    data = pack_record(SCHEMA, values)
    assert len(data) == SCHEMA.record_size
    assert unpack_record(SCHEMA, data) == values


def test_round_trip_map():
    row = {"id": 1, "score": 2, "active": False, "tag": "x"}
    data = pack_record_map(SCHEMA, row)
    assert unpack_record_map(SCHEMA, data) == row


def test_pack_wrong_arity():
    with pytest.raises(SchemaError):
        pack_record(SCHEMA, (1, 2, True))


def test_pack_map_missing_column():
    with pytest.raises(SchemaError):
        pack_record_map(SCHEMA, {"id": 1, "score": 2, "active": True})


def test_unpack_wrong_length():
    with pytest.raises(SchemaError):
        unpack_record(SCHEMA, b"\x00" * (SCHEMA.record_size - 1))
    with pytest.raises(SchemaError):
        unpack_fields(SCHEMA, b"\x00", ["id"])


def test_partial_unpack():
    data = pack_record(SCHEMA, (9, 5, True, "abc"))
    assert unpack_fields(SCHEMA, data, ["tag", "id"]) == {"tag": "abc", "id": 9}


def test_overwrite_field_in_place():
    data = bytearray(pack_record(SCHEMA, (9, 5, True, "abc")))
    row = unpack_record_map(SCHEMA, bytes(data))  # as Table.update does
    row["score"] = -100
    data[:] = pack_record_map(SCHEMA, row)
    assert unpack_record(SCHEMA, bytes(data)) == (9, -100, True, "abc")


def test_overwrite_field_wrong_buffer_size():
    with pytest.raises(SchemaError):
        unpack_record_map(SCHEMA, bytes(3))


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.booleans(),
    st.text(alphabet="abcdefgh", max_size=8),
)
def test_round_trip_property(uid, score, active, tag):
    values = (uid, score, active, tag)
    assert unpack_record(SCHEMA, pack_record(SCHEMA, values)) == values


# -- record-byte pins ---------------------------------------------------------
#
# Literals taken before the serde moved to one compiled struct per schema;
# between them the four Wikipedia schemas cover UINT8/32, TIMESTAMP32, CHAR,
# INT64, VARCHAR and TIMESTAMP_STR14.

def _pinned_rows():
    from repro.workload.wikipedia import (
        PAGE_SCHEMA,
        PAGE_SCHEMA_DECLARED,
        REVISION_SCHEMA,
        REVISION_SCHEMA_DECLARED,
    )

    page = {
        "page_id": 9_000_123, "page_namespace": 4,
        "page_title": "No_bits_left_behind", "page_latest": 340_000_777,
        "page_touched": 1_262_304_123, "page_len": 54_321,
    }
    rev = {
        "rev_id": 340_000_777, "rev_page": 9_000_123, "rev_text_id": 1_234_567,
        "rev_user": 42, "rev_timestamp": 1_262_304_123, "rev_minor_edit": 1,
        "rev_len": 54_321, "rev_comment": "rv vandalism — café",
    }
    stamp = "20100101000203"
    return [
        (PAGE_SCHEMA, page),
        (REVISION_SCHEMA, rev),
        (PAGE_SCHEMA_DECLARED, {**page, "page_touched": stamp}),
        (REVISION_SCHEMA_DECLARED,
         {**rev, "rev_timestamp": stamp, "rev_len": -54_321}),
    ]


_PINNED_HEX = [
    (
        "bb548900044e6f5f626974735f6c6566745f626568696e640000000000090044"
        "147b3b3d4b31d40000"
    ),
    (
        "09004414bb54890087d612002a0000007b3b3d4b0131d4000072762076616e64"
        "616c69736d20e2809420636166c3a90000000000000000000000000000000000"
        "00"
    ),
    (
        "bb54890000000000040000000000000013004e6f5f626974735f6c6566745f62"
        "6568696e64000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000900441400000000323031303031"
        "303130303032303331d4000000000000"
    ),
    (
        "0900441400000000bb5489000000000087d61200000000002a00000000000000"
        "32303130303130313030303230330100000000000000cf2bffffffffffff1600"
        "72762076616e64616c69736d20e2809420636166c3a900000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "00000000"
    ),
]


def test_record_bytes_pinned():
    for (schema, row), expected in zip(_pinned_rows(), _PINNED_HEX, strict=True):
        data = pack_record_map(schema, row)
        assert data.hex() == expected
        assert unpack_record_map(schema, data) == row
        assert unpack_record(schema, data) == tuple(row.values())
        assert unpack_fields(schema, data, list(row)[::2]) == {
            name: row[name] for name in list(row)[::2]
        }


# -- error taxonomy -----------------------------------------------------------
#
# The compiled ``Struct`` is laxer than the types (it packs ``True`` into an
# integer code, truncates over-long strings) and raises ``struct.error`` of
# its own; callers must keep seeing the engine's exceptions, never that one.


def _raises(exc_type, fn, *args):
    import struct

    with pytest.raises(exc_type) as caught:
        fn(*args)
    assert not isinstance(caught.value, struct.error)
    return caught.value


def test_wrong_record_length_is_a_schema_error():
    data = pack_record(SCHEMA, (9, 5, True, "abc"))
    for bad in (data[:-1], data + b"\x00", b""):
        _raises(SchemaError, unpack_record, SCHEMA, bad)
        _raises(SchemaError, unpack_record_map, SCHEMA, bad)
        _raises(SchemaError, unpack_fields, SCHEMA, bad, ["id"])


def test_unknown_projected_name_is_a_schema_error():
    data = pack_record(SCHEMA, (9, 5, True, "abc"))
    exc = _raises(SchemaError, unpack_fields, SCHEMA, data, ["id", "nope"])
    assert "'nope'" in str(exc)


def test_missing_columns_are_named_sorted():
    exc = _raises(SchemaError, pack_record_map, SCHEMA, {"score": 2})
    assert str(exc) == "missing values for columns ['active', 'id', 'tag']"


#: A float column, and a VARCHAR beside it: the rows of two values.
FLOATS = Schema.of(("x", FLOAT64), ("note", varchar(4)))


@pytest.mark.parametrize("values", [
    (2**64, 0, True, "x"),        # out of range, unsigned
    (-1, 0, True, "x"),
    (0, 2**31, True, "x"),        # out of range, signed
    (True, 0, True, "x"),         # bool is not an int here
    (0, False, True, "x"),
    (0, 0, 1, "x"),               # and an int is not a bool
    (0, 0, True, "x" * 9),        # over-long string: never truncated
    (0, 0, True, "é" * 5),        # ... measured in encoded bytes
    (0, 0, True, b"bytes"),
    (0.5, 0, True, "x"),
    (None, 0, True, "x"),
    (0, 0, True, "\ud800"),       # a lone surrogate has no UTF-8
    (10**400, "x"),               # an int beyond float range
    (-(10**400), "x"),
    (0.5, "\udfff"),
])
def test_bad_values_are_type_mismatches(values):
    from repro.errors import TypeMismatchError

    schema = FLOATS if len(values) == len(FLOATS) else SCHEMA
    _raises(TypeMismatchError, pack_record, schema, values)
    _raises(TypeMismatchError, pack_record_map, schema, dict(zip(schema.names, values)))


def test_used_schema_still_copies_and_pickles():
    """A compiled ``Struct`` neither deep-copies nor pickles; the codec is
    derived state and must not ride along with a schema that has one."""
    import copy
    import pickle

    row = {"id": 1, "score": -2, "active": True, "tag": "x"}
    data = pack_record_map(SCHEMA, row)
    assert unpack_record_map(SCHEMA, data) == row  # codec is compiled now
    for clone in (copy.deepcopy(SCHEMA), copy.copy(SCHEMA),
                  pickle.loads(pickle.dumps(SCHEMA))):
        assert clone == SCHEMA and clone is not SCHEMA
        assert clone.names == SCHEMA.names
        assert clone.record_size == SCHEMA.record_size
        assert clone._offsets["tag"] == SCHEMA._offsets["tag"]
        assert pack_record_map(clone, row) == data
        assert unpack_fields(clone, data, ["tag", "score"]) == {"tag": "x", "score": -2}


def test_one_struct_per_schema_and_no_projection_cache():
    data = pack_record(SCHEMA, (9, 5, True, "abc"))
    fresh = Schema(SCHEMA.columns)
    assert "codec" not in vars(fresh)  # compiled lazily
    before = set(vars(SCHEMA))
    for names in (["id"], ["tag", "id"], ["score"], list(SCHEMA.names)):
        unpack_fields(SCHEMA, data, names)
    assert set(vars(SCHEMA)) == before | {"codec"}
    packer, pre, post = SCHEMA.codec
    assert packer.format == "<Qi?8s" and packer.size == SCHEMA.record_size
    assert [i for i, _ in pre] == [i for i, _ in post] == [3]
