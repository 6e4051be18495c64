"""Table: write fan-out across indexes, scans, updates, deletes."""

import pytest

from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.errors import QueryError, ReproError, TypeMismatchError
from repro.query.predicates import ColumnRange
from repro.query.table import PlainIndex, Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.util.rng import DeterministicRng

SCHEMA = Schema.of(
    ("id", UINT64),
    ("name", char(10)),
    ("score", UINT32),
)


def build(with_cached=True):
    pool = BufferPool(SimulatedDisk(1024), 1 << 20)
    heap = HeapFile(pool)
    table = Table("users", SCHEMA, heap)
    pk_tree = BPlusTree(pool, 8, 8, name="pk")
    table.attach_index("pk", PlainIndex(pk_tree, heap, SCHEMA, ("id",)))
    if with_cached:
        name_tree = BPlusTree(pool, 10, 8, name="by_name")
        table.attach_index(
            "by_name",
            CachedBTree(
                name_tree, heap, SCHEMA, ("name",), ("score",),
                rng=DeterministicRng(0),
                invalidation=CacheInvalidation(128),
            ),
        )
    return table


def row(i):
    return {"id": i, "name": f"user{i}", "score": i % 10}


def test_insert_fans_out_to_all_indexes():
    table = build()
    table.insert(row(1))
    assert table.lookup("pk", 1).found
    assert table.lookup("by_name", "user1").found
    assert table.num_rows == 1


def test_lookup_unknown_index_raises():
    table = build()
    with pytest.raises(QueryError):
        table.lookup("nope", 1)


def test_duplicate_index_name_rejected():
    table = build()
    with pytest.raises(QueryError):
        table.attach_index("pk", object())  # type: ignore[arg-type]


def test_update_via_any_index_visible_via_all():
    table = build()
    table.insert(row(1))
    assert table.update("pk", 1, {"score": 77})
    assert table.lookup("by_name", "user1", ("score",)).values == {"score": 77}


def test_update_key_column_of_other_index_rejected():
    table = build()
    table.insert(row(1))
    with pytest.raises(QueryError):
        table.update("pk", 1, {"name": "renamed"})


def test_update_missing_returns_false():
    table = build()
    assert not table.update("pk", 99, {"score": 1})


def test_update_invalidates_cached_index():
    table = build()
    table.insert(row(1))
    table.lookup("by_name", "user1", ("name", "score"))
    table.lookup("by_name", "user1", ("name", "score"))  # cached
    table.update("pk", 1, {"score": 42})
    got = table.lookup("by_name", "user1", ("score",))
    assert got.values == {"score": 42}


def test_delete_removes_from_all_indexes():
    table = build()
    table.insert(row(1))
    assert table.delete("by_name", "user1")
    assert not table.lookup("pk", 1).found
    assert not table.lookup("by_name", "user1").found
    assert table.num_rows == 0
    assert not table.delete("pk", 1)


def test_scan_with_predicate_and_projection():
    table = build(with_cached=False)
    for i in range(20):
        table.insert(row(i))
    got = list(table.scan(ColumnRange("id", lo=5, hi=8), ("id",)))
    assert got == [{"id": 5}, {"id": 6}, {"id": 7}]
    assert len(list(table.scan())) == 20


def test_plain_index_stats():
    table = build(with_cached=False)
    table.insert(row(1))
    index = table.index("pk")
    table.lookup("pk", 1)
    table.lookup("pk", 2)
    assert index.lookups == 2
    assert index.heap_fetches == 1


def test_wrong_arity_key_raises_type_mismatch_naming_both_counts():
    """A key with the wrong number of parts used to escape the error
    hierarchy (bare ``ValueError`` from the 1-tuple unpacking, bare
    ``TypeError`` from ``tuple(5)``), past every ``except ReproError``."""
    table = build(with_cached=False)
    pool = table.heap.pool
    table.attach_index(
        "id_name",
        PlainIndex(BPlusTree(pool, 18, 8), table.heap, SCHEMA, ("id", "name")),
    )
    table.insert(row(1))
    assert issubclass(TypeMismatchError, ReproError)
    for call, expected, given in (
        (lambda: table.lookup("pk", (1, 2)), 1, 2),
        (lambda: table.lookup("pk", ()), 1, 0),
        (lambda: table.update("pk", (1, 2), {"score": 0}), 1, 2),
        (lambda: table.delete("pk", ()), 1, 0),
        (lambda: table.lookup("id_name", 1), 2, 1),
        (lambda: table.lookup("id_name", (1,)), 2, 1),
        (lambda: table.update("id_name", 1, {"score": 0}), 2, 1),
        (lambda: table.delete("id_name", (1, "user1", 3)), 2, 3),
    ):
        with pytest.raises(
            TypeMismatchError, match=rf"expects {expected} parts?, got {given}\b"
        ):
            call()
    # the well-formed spellings still resolve, and nothing was written
    assert table.lookup("pk", (1,)).values == table.lookup("pk", 1).values == row(1)
    assert table.lookup("id_name", (1, "user1")).found
