"""CachedBTree: the end-to-end §2.1 read/fill/invalidate paths."""

import pytest

from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.core.index_cache.latching import LatchSimulator
from repro.errors import QueryError
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.sim.cost_model import CostModel
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.util.rng import DeterministicRng

SCHEMA = Schema.of(
    ("id", UINT64),
    ("name", char(12)),
    ("score", UINT32),
    ("level", UINT32),
)


def build(invalidation=None, latch=None, cost_model=None, cached=("score", "level")):
    pool = BufferPool(SimulatedDisk(1024), 1 << 20)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=8, value_size=8)
    index = CachedBTree(
        tree, heap, SCHEMA, ("id",), cached,
        rng=DeterministicRng(5), invalidation=invalidation, latch=latch,
        cost_model=cost_model,
    )
    table = Table("t", SCHEMA, heap)
    table.attach_index("pk", index)
    return table, index


def row(i):
    return {"id": i, "name": f"n{i}", "score": i * 2, "level": i % 7}


def test_lookup_not_found():
    _, index = build()
    result = index.lookup(99)
    assert not result.found
    assert result.values is None


def test_first_lookup_misses_then_hits():
    table, index = build()
    table.insert(row(1))
    r1 = index.lookup(1, ("id", "score"))
    assert r1.found and not r1.from_cache
    assert r1.values == {"id": 1, "score": 2}
    r2 = index.lookup(1, ("id", "score"))
    assert r2.from_cache
    assert r2.values == {"id": 1, "score": 2}
    assert index.stats.answered_from_cache == 1
    assert index.stats.heap_fetches == 1


def test_unanswerable_projection_goes_to_heap():
    table, index = build()
    table.insert(row(1))
    index.lookup(1, ("id", "score"))  # fills the cache
    r = index.lookup(1, ("id", "name"))  # name is not cached
    assert not r.from_cache
    assert r.values == {"id": 1, "name": "n1"}
    assert index.stats.not_answerable == 1


def test_unknown_projection_column_rejected():
    _, index = build()
    with pytest.raises(QueryError):
        index.lookup(1, ("nope",))


def test_cached_key_column_rejected():
    with pytest.raises(QueryError):
        build(cached=("id", "score"))


def test_cached_fields_must_be_nonempty():
    with pytest.raises(QueryError):
        build(cached=())


def test_update_invalidates_cached_copy():
    inv = CacheInvalidation(log_threshold=100)
    table, index = build(invalidation=inv)
    table.insert(row(1))
    index.lookup(1, ("id", "score"))
    index.lookup(1, ("id", "score"))  # cached now
    assert table.update("pk", 1, {"score": 999})
    r = index.lookup(1, ("id", "score"))
    assert r.values == {"id": 1, "score": 999}


def test_update_of_uncached_field_skips_invalidation():
    inv = CacheInvalidation(log_threshold=100)
    table, index = build(invalidation=inv)
    table.insert(row(1))
    table.update("pk", 1, {"name": "other"})
    assert inv.predicates_logged == 0


def test_update_key_column_rejected():
    table, index = build()
    table.insert(row(1))
    with pytest.raises(QueryError):
        table.update("pk", 1, {"id": 2})


def test_update_missing_returns_false():
    table, index = build()
    assert not table.update("pk", 1, {"score": 0})


def test_delete_row():
    inv = CacheInvalidation(log_threshold=100)
    table, index = build(invalidation=inv)
    table.insert(row(1))
    assert table.delete("pk", 1)
    assert not index.lookup(1).found
    assert not table.delete("pk", 1)


def test_latch_contention_skips_fills_without_breaking():
    latch = LatchSimulator(1.0, DeterministicRng(0))
    table, index = build(latch=latch)
    table.insert(row(1))
    r1 = index.lookup(1, ("id", "score"))
    r2 = index.lookup(1, ("id", "score"))
    assert r1.values == r2.values
    assert not r2.from_cache  # fill never happened
    assert index.stats.fills_skipped_latch == 2
    assert latch.given_up == 2


def test_cost_model_charges_descent_and_probe():
    cm = CostModel()
    table, index = build(cost_model=cm)
    table.insert(row(1))
    index.lookup(1, ("id", "score"))
    # the pool has no cost hook, so the clock holds one descent + one probe
    assert cm.now_ns == cm.preset.index_descent_ns + cm.preset.cache_probe_ns
    assert index.stats.lookups == 1
    assert index.cache.stats.probes == 1


def test_many_rows_cache_answers_most_repeats():
    table, index = build()
    for i in range(200):
        table.insert(row(i))
    for i in range(200):
        index.lookup(i, ("id", "score", "level"))
    index.stats.found = 0
    index.stats.answered_from_cache = 0
    for i in range(200):
        index.lookup(i, ("id", "score", "level"))
    assert index.stats.cache_answer_rate > 0.6
    # values are still correct from cache
    r = index.lookup(42, ("score",))
    assert r.values == {"score": 84}


def test_capacity_and_item_count():
    table, index = build()
    for i in range(50):
        table.insert(row(i))
    assert index.cache_capacity_total() > 0
    assert index.cached_item_count() == 0
    for i in range(50):
        index.lookup(i, ("id", "score"))
    assert 0 < index.cached_item_count() <= index.cache_capacity_total()


def test_composite_key_cached_index():
    schema = Schema.of(
        ("ns", UINT32), ("title", char(8)), ("size", UINT32),
    )
    pool = BufferPool(SimulatedDisk(1024), 1 << 20)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=12, value_size=8)
    index = CachedBTree(
        tree, heap, schema, ("ns", "title"), ("size",),
        rng=DeterministicRng(0),
    )
    table = Table("t", schema, heap)
    table.attach_index("name_title", index)
    table.insert({"ns": 0, "title": "Main", "size": 7})
    r1 = index.lookup((0, "Main"), ("ns", "title", "size"))
    assert r1.values == {"ns": 0, "title": "Main", "size": 7}
    r2 = index.lookup((0, "Main"), ("ns", "title", "size"))
    assert r2.from_cache
    assert r2.values == r1.values


def test_key_size_mismatch_rejected():
    pool = BufferPool(SimulatedDisk(1024), 64)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=4, value_size=8)  # id needs 8
    with pytest.raises(QueryError):
        CachedBTree(tree, heap, SCHEMA, ("id",), ("score",))


def test_value_size_must_be_rid():
    pool = BufferPool(SimulatedDisk(1024), 64)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=8, value_size=4)
    with pytest.raises(QueryError):
        CachedBTree(tree, heap, SCHEMA, ("id",), ("score",))
