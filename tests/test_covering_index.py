"""CoveringIndex: correctness and the size cost the paper calls out."""

import pytest

from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.covering import CoveringIndex
from repro.errors import QueryError
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RID_SIZE
from repro.util.rng import DeterministicRng

SCHEMA = Schema.of(
    ("id", UINT64),
    ("name", char(12)),
    ("score", UINT32),
)
COVERED = ("score",)


def build():
    pool = BufferPool(SimulatedDisk(1024), 1 << 20)
    heap = HeapFile(pool)
    value_size = CoveringIndex.value_size_for(SCHEMA, COVERED)
    tree = BPlusTree(pool, key_size=8, value_size=value_size)
    index = CoveringIndex(tree, heap, SCHEMA, ("id",), COVERED)
    return table_over(index, heap), index


def table_over(index, heap):
    table = Table("t", SCHEMA, heap)
    table.attach_index("ix", index)
    return table


def row(i):
    return {"id": i, "name": f"n{i}", "score": i * 2}


def test_value_size_for():
    assert CoveringIndex.value_size_for(SCHEMA, ("score",)) == RID_SIZE + 4
    assert CoveringIndex.value_size_for(SCHEMA, ("name", "score")) == RID_SIZE + 16


def test_covered_lookup_never_touches_heap():
    table, index = build()
    for i in range(100):
        table.insert(row(i))
    r = index.lookup(42, ("id", "score"))
    assert r.found and r.from_cache
    assert r.values == {"id": 42, "score": 84}
    assert index.stats.heap_fetches == 0
    assert index.stats.answered_from_index == 1


def test_uncovered_projection_fetches_heap():
    table, index = build()
    table.insert(row(1))
    r = index.lookup(1, ("id", "name"))
    assert not r.from_cache
    assert r.values == {"id": 1, "name": "n1"}
    assert index.stats.heap_fetches == 1


def test_lookup_missing():
    _, index = build()
    assert not index.lookup(5).found


def test_update_rewrites_covered_copy():
    table, index = build()
    table.insert(row(1))
    r = dict(row(1))
    r["score"] = 999
    index.note_update(r, {"score"})
    got = index.lookup(1, ("score",))
    assert got.values == {"score": 999}
    assert got.from_cache  # still answered from the index


def test_delete_key():
    table, index = build()
    table.insert(row(1))
    index.delete_key(row(1))
    assert not index.lookup(1).found


def test_covering_index_is_bigger_than_cached():
    """The paper's claim: covering indexes bloat the index.  (The fill
    *fraction* is entry-size independent; the bloat shows in total bytes
    per entry.)"""
    n = 2000
    wide_covered = ("name", "score")

    pool = BufferPool(SimulatedDisk(1024), 1 << 20)
    heap = HeapFile(pool)
    plain_tree = BPlusTree(pool, key_size=8, value_size=RID_SIZE)
    cached = CachedBTree(
        plain_tree, heap, SCHEMA, ("id",), wide_covered,
        rng=DeterministicRng(0),
    )
    pool2 = BufferPool(SimulatedDisk(1024), 1 << 20)
    heap2 = HeapFile(pool2)
    value_size = CoveringIndex.value_size_for(SCHEMA, wide_covered)
    cover_tree = BPlusTree(pool2, key_size=8, value_size=value_size)
    covering = CoveringIndex(cover_tree, heap2, SCHEMA, ("id",), wide_covered)
    cached_table = table_over(cached, heap)
    covering_table = table_over(covering, heap2)
    ids = list(range(n))
    DeterministicRng(1).shuffle(ids)
    for i in ids:
        cached_table.insert(row(i))
        covering_table.insert(row(i))
    assert covering.tree.size_bytes > 1.4 * plain_tree.size_bytes


def test_validation():
    pool = BufferPool(SimulatedDisk(1024), 64)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=8, value_size=RID_SIZE)  # wrong value sz
    with pytest.raises(QueryError):
        CoveringIndex(tree, heap, SCHEMA, ("id",), COVERED)
    with pytest.raises(QueryError):
        CoveringIndex(tree, heap, SCHEMA, ("id",), ())
    with pytest.raises(QueryError):
        CoveringIndex(tree, heap, SCHEMA, ("id",), ("id",))


def test_unknown_projection_rejected():
    table, index = build()
    table.insert(row(1))
    with pytest.raises(QueryError):
        index.lookup(1, ("nope",))
