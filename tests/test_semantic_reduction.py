"""ID elision (§4.2): RID proxies and FD-based drops."""

import pytest

from repro.core.semantic_ids.reduction import (
    FunctionalDependency,
    RidProxyTable,
    find_droppable_columns,
    id_elision_savings,
)
from repro.errors import SchemaError
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile

SCHEMA = Schema.of(
    ("row_id", UINT64),
    ("name", char(12)),
    ("score", UINT32),
)


def build():
    pool = BufferPool(SimulatedDisk(512), 1 << 20)
    return RidProxyTable(SCHEMA, "row_id", HeapFile(pool))


def test_stored_schema_drops_the_id():
    table = build()
    assert table.stored_schema.names == ("name", "score")
    assert SCHEMA.record_size - table.stored_schema.record_size == 8


def test_insert_get_round_trip():
    table = build()
    rid = table.insert({"row_id": 999, "name": "alice", "score": 5})
    got = table.get(rid, ("name", "score"))
    assert got == {"name": "alice", "score": 5}


def test_id_column_synthesised_from_address():
    table = build()
    rid_a = table.insert({"row_id": 0, "name": "a", "score": 1})
    rid_b = table.insert({"row_id": 0, "name": "b", "score": 2})
    id_a = table.get(rid_a, ("row_id",))["row_id"]
    id_b = table.get(rid_b, ("row_id",))["row_id"]
    assert id_a != id_b  # uniqueness — the only property the app needs
    assert table.get(rid_a)["row_id"] == id_a  # stable


def test_supplied_id_value_is_discarded():
    table = build()
    rid = table.insert({"row_id": 12345, "name": "x", "score": 0})
    # the physical record contains no id bytes at all
    assert len(table.get(rid)) == 3
    record = table.get(rid, ("name", "score"))
    assert "row_id" not in record


def test_delete(   ):
    table = build()
    rid = table.insert({"row_id": 0, "name": "x", "score": 0})
    table.delete(rid)
    with pytest.raises(Exception):
        table.get(rid)


def test_unknown_id_column_rejected():
    pool = BufferPool(SimulatedDisk(512), 16)
    with pytest.raises(SchemaError):
        RidProxyTable(SCHEMA, "nope", HeapFile(pool))


def test_savings_arithmetic():
    assert id_elision_savings(SCHEMA, "row_id", 1_000) == 8_000


def test_fd_droppable_when_value_unused():
    fds = [
        FunctionalDependency(("a",), "row_id", frozenset({"uniqueness"})),
        FunctionalDependency(("a",), "name", frozenset({"value"})),
    ]
    schema = Schema.of(("a", UINT32), ("row_id", UINT64), ("name", char(4)))
    assert find_droppable_columns(schema, fds) == ["row_id"]


def test_fd_validation():
    schema = Schema.of(("a", UINT32))
    with pytest.raises(SchemaError):
        find_droppable_columns(
            schema,
            [FunctionalDependency(("a",), "missing", frozenset())],
        )
    with pytest.raises(SchemaError):
        find_droppable_columns(
            schema,
            [FunctionalDependency(("missing",), "a", frozenset())],
        )
