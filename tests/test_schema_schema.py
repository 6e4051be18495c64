"""Schema layout arithmetic and derivation."""

import pytest

from repro.errors import SchemaError
from repro.schema.record import unpack_fields
from repro.schema.schema import Column, Schema
from repro.schema.types import INT64, UINT8, UINT32, char, varchar


@pytest.fixture
def schema() -> Schema:
    return Schema.of(
        ("id", UINT32),
        ("flag", UINT8),
        ("name", char(10)),
        ("note", varchar(5)),
    )


def test_record_size_is_sum(schema):
    assert schema.record_size == 4 + 1 + 10 + 7


def test_offsets_are_cumulative(schema):
    assert schema._offsets["id"] == 0
    assert schema._offsets["flag"] == 4
    assert schema._offsets["name"] == 5
    assert schema._offsets["note"] == 15


def test_names_and_positions(schema):
    assert schema.names == ("id", "flag", "name", "note")
    assert schema.names.index("name") == 2
    assert schema.has_column("flag")
    assert not schema.has_column("nope")


def test_unknown_column_raises(schema):
    with pytest.raises(SchemaError):
        schema.column("missing")
    with pytest.raises(SchemaError):
        schema.project(["missing"])
    with pytest.raises(SchemaError):
        unpack_fields(schema, bytes(schema.record_size), ["missing"])


def test_duplicate_column_rejected():
    with pytest.raises(SchemaError):
        Schema.of(("a", UINT8), ("a", UINT32))


def test_project_preserves_order_given(schema):
    projected = schema.project(["note", "id"])
    assert projected.names == ("note", "id")
    assert projected.record_size == 7 + 4


def test_drop(schema):
    reduced = schema.drop(["flag", "note"])
    assert reduced.names == ("id", "name")
    with pytest.raises(SchemaError):
        schema.drop(["missing"])


def test_with_stored_types_remembers_declared(schema):
    optimized = schema.with_stored_types({"id": UINT8})
    col = optimized.column("id")
    assert col.ctype == UINT8
    assert col.declared_type == UINT32
    # untouched columns keep identity
    assert optimized.column("flag").declared_type == UINT8
    assert optimized.record_size == schema.record_size - 3


def test_column_declared_defaults_to_stored():
    col = Column("x", INT64)
    assert col.declared_type == INT64
    assert col.size == 8


def test_iteration_and_len(schema):
    assert len(schema) == 4
    assert [c.name for c in schema.columns] == list(schema.names)


def test_describe_mentions_retyped_columns(schema):
    optimized = schema.with_stored_types({"id": UINT8})
    text = optimized.describe()
    assert "declared UINT32" in text
