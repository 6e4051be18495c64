"""One count per event: the registry reads the counts components own.

``MetricsRegistry.adopt`` hands a component's plain int fields to named
counters, so ``Counter.value`` is the direct ``inc()`` total plus every
adopted field.  Each case below fails on a plausible wrong design: a
fresh counter per adoption, a reset that only zeroes the direct part, a
null registry that holds its holders, an adoption taken before the
constructor's refusals, a component adopted whole instead of through a
holder of ints (a shared registry would then keep the engine alive), or
two healers that do not sum.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.btree.tree import BPlusTree
from repro.columnar.manager import ColumnarManager
from repro.core.index_cache.cached_index import CachedBTree
from repro.errors import QueryError
from repro.faults import RecoveryManager, flip_bit
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.obs.adaptive import AdaptiveController
from repro.obs.profiler import QueryProfiler
from repro.obs.sampler import TelemetrySampler
from repro.query.database import Database
from repro.query.predicates import ColumnEq
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import RID_SIZE, HeapFile
from repro.util.rng import DeterministicRng

SCHEMA = Schema.of(
    ("id", UINT64),
    ("name", char(12)),
    ("score", UINT32),
)
PROJECT = ("id", "score")


def _pool(registry) -> tuple[BufferPool, list[int]]:
    pool = BufferPool(SimulatedDisk(256), 4, registry=registry)
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid, dirty=True)
    return pool, [pid]


def _touch(pool: BufferPool, page_id: int, times: int = 1) -> None:
    for _ in range(times):
        pool.fetch(page_id)
        pool.unpin(page_id)


def _index(registry, cached=("score",), key_size=8, value_size=RID_SIZE):
    pool = BufferPool(SimulatedDisk(1024), 1 << 10, registry=registry)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=key_size, value_size=value_size)
    index = CachedBTree(
        tree, heap, SCHEMA, ("id",), cached,
        rng=DeterministicRng(5), registry=registry,
    )
    table = Table("t", SCHEMA, heap)
    table.attach_index("pk", index)
    return table, index


def test_a_profiler_built_before_an_index_sees_its_hits_and_heap_fetches():
    registry = MetricsRegistry()
    profiler = QueryProfiler(registry)  # caches index_cache.* counters now
    table, index = _index(registry)
    table.insert({"id": 1, "name": "a", "score": 7})
    token = profiler.begin("lookup", "t", "pk", index)
    assert not index.lookup(1, PROJECT).from_cache  # miss: heap fetch, fill
    assert index.lookup(1, PROJECT).from_cache
    profiler.end(token)
    (profile,) = profiler.slow_queries()
    assert (profile.cache_hits, profile.cache_misses, profile.heap_fetches) == (
        1, 1, 1
    )


def test_an_adopted_counter_reads_zero_after_reset_then_resumes():
    registry = MetricsRegistry()
    pool, (pid,) = _pool(registry)
    _touch(pool, pid, 3)
    hit = registry.counter("bufferpool.hit")
    assert hit.value == pool.hits == 3
    registry.reset()
    assert hit.value == 0
    assert pool.hits == 3  # the owner's count is the owner's
    _touch(pool, pid, 2)
    assert hit.value == 2
    assert registry.snapshot()["bufferpool"]["hit"] == 2


def test_two_pools_on_one_registry_sum():
    registry = MetricsRegistry()
    a, (pa,) = _pool(registry)
    b, (pb,) = _pool(registry)
    _touch(a, pa, 2)
    _touch(b, pb, 5)
    registry.counter("bufferpool.hit").inc(1)  # a direct inc adds on top
    assert registry.counter("bufferpool.hit").value == 2 + 5 + 1


def test_a_component_on_the_null_registry_counts_and_is_not_held():
    pool, (pid,) = _pool(NULL_REGISTRY)
    _touch(pool, pid, 2)
    assert pool.hits == 2
    assert NULL_REGISTRY.snapshot() == {}
    assert NULL_REGISTRY.counter("bufferpool.hit").value == 0
    ref = weakref.ref(pool)
    del pool
    gc.collect()
    assert ref() is None


def test_a_dropped_pool_and_its_registry_need_no_cycle_collector():
    """The registry holds the pool; the pool must not hold the registry,
    or every engine a workload drops waits for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        registry = MetricsRegistry()
        pool, (pid,) = _pool(registry)
        _touch(pool, pid, 2)
        ref = weakref.ref(pool)
        del pool, registry
        assert ref() is None
    finally:
        gc.enable()


def test_a_real_registry_keeps_what_it_adopted_alive():
    registry = MetricsRegistry()
    pool, (pid,) = _pool(registry)
    _touch(pool, pid, 4)
    ref = weakref.ref(pool)
    del pool
    gc.collect()
    assert ref() is not None  # the counts outlive the engine's reference
    assert registry.counter("bufferpool.hit").value == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cached": ("id",)},             # caches a key column
        {"cached": ()},                  # nothing to cache
        {"key_size": 4},                 # tree key width != codec width
        {"value_size": RID_SIZE + 1},    # tree values are not RIDs
    ],
    ids=["key-overlap", "empty-payload", "key-size", "value-size"],
)
def test_a_refused_cached_index_moves_no_counter(kwargs):
    registry = MetricsRegistry()
    with pytest.raises(QueryError):
        _index(registry, **kwargs)
    # its pool and tree registered their own instruments; the index
    # adopted nothing, so no index_cache.* counter exists yet
    assert "index_cache" not in registry.snapshot()
    table, index = _index(registry)
    table.insert({"id": 1, "name": "a", "score": 7})
    index.lookup(1, PROJECT)
    counts = registry.snapshot()["index_cache"]
    assert (counts["lookup"], counts["miss"], counts["heap_fetch"]) == (1, 1, 1)


def test_index_cache_miss_reads_the_caches_own_misses():
    registry = MetricsRegistry()
    table, index = _index(registry)
    for i in range(20):
        table.insert({"id": i, "name": f"n{i}", "score": i})
    for i in (*range(20), *range(20)):
        index.lookup(i, PROJECT)
    snap = registry.snapshot()["index_cache"]
    assert snap["miss"] == index.cache.stats.misses == snap["swap"]["miss"]
    assert snap["hit"] == index.stats.answered_from_cache
    assert snap["lookup"] == index.stats.lookups == 40


# -- the holders: plain ints, so a shared registry holds no engine ----------


def _armed_engine(registry):
    """A WAL engine with every adopted component armed and counting: a
    heal, a session, the adaptive controller (fed one window), profiling
    and columnar."""
    db = Database(seed=0, wal=True, data_pool_pages=64, metrics=registry)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    db.create_cached_index("t", "by_name", ("name",), cached_fields=("score",))
    for i in range(60):
        table.insert({"id": i, "name": f"n{i}", "score": i})
    db.enable_profiling()
    controller = db.enable_adaptive()
    db.enable_columnar()
    db.recovery.call(table.lookup, "pk", 3)
    controller.evaluate(controller.sampler.sample())
    session = db.session()
    with session.transaction():
        session.update("t", 4, {"score": 40})
    list(table.scan(ColumnEq("score", 40)))
    return db


def test_a_dropped_engine_on_a_shared_registry_is_collected():
    """What the registry adopts from an engine's recovery manager,
    adaptive controller, profiler and columnar manager is a holder of
    ints, never the component: once the engine is dropped nothing the
    registry holds reaches it.  (The engine's own back-references — its
    recovery, txn and columnar managers point at it — are cycles, so one
    explicit collection runs, with the automatic collector off.)"""
    gc.collect()
    gc.disable()
    try:
        registry = MetricsRegistry()
        db = _armed_engine(registry)
        held = (
            db.recovery.stats, db.adaptive.stats, db.tracer.profiler.counts,
            db.columnar.stats,
        )
        ref = weakref.ref(db)
        del db
        gc.collect()
        assert ref() is None
    finally:
        gc.enable()
    recovery, adaptive, profiler, columnar = held
    snap = registry.snapshot()
    assert snap["recovery"]["index_rebuilds"] == recovery.index_rebuilds
    assert snap["adaptive"]["ticks"] == adaptive.ticks > 0
    assert snap["profiler"]["ops"] == profiler.operations > 0
    assert snap["columnar"]["rebuilds"] == columnar.rebuilds == 1
    assert snap["columnar"]["cache"]["misses"] == columnar.cache_misses == 1


def _holders(registry):
    """``(component, holder)`` pairs built standalone on ``registry``."""
    sampler = TelemetrySampler(registry, clock=None)
    columnar = ColumnarManager(registry=registry)
    recovery = RecoveryManager(object(), registry=registry)
    controller = AdaptiveController(sampler, registry=registry)
    profiler = QueryProfiler(registry)
    return [
        (recovery, recovery.stats),
        (controller, controller.stats),
        (profiler, profiler.counts),
        (columnar, columnar.stats),
    ]


def test_no_holder_sits_on_a_reference_cycle():
    """Every holder is plain ints, so nothing it refers to can lead back
    to it; with the collector off, a component dies with its last
    reference while the registry keeps its holder, and the holder dies
    with the registry."""
    registry = MetricsRegistry()
    for _component, holder in _holders(registry):
        assert all(type(v) is int for v in vars(holder).values()), holder
    gc.collect()
    gc.disable()
    try:
        registry = MetricsRegistry()
        pairs = _holders(registry)
        components = [weakref.ref(c) for c, _ in pairs]
        holders = [weakref.ref(h) for _, h in pairs]
        del pairs
        assert [c() for c in components] == [None] * len(components)
        assert None not in [h() for h in holders]
        del registry
        assert [h() for h in holders] == [None] * len(holders)
    finally:
        gc.enable()


def test_two_healers_on_one_engine_sum_on_its_registry():
    """The fault drill's final sweep heals through a second
    ``RecoveryManager`` on the engine's registry: both holders count
    into the same names, and a reset zeroes the sum, not either count."""
    registry = MetricsRegistry()
    db = Database(seed=0, wal=True, data_pool_pages=64, metrics=registry)
    table = db.create_table("t", SCHEMA)
    index = db.create_index("t", "pk", ("id",))
    for i in range(200):
        table.insert({"id": i, "name": f"n{i}", "score": i})

    def corrupt_a_leaf(pick):
        db.data_pool.flush_all()
        db.data_pool.drop_clean()
        page = pick(index.tree.leaf_page_ids)
        db.disk.write_page(page, flip_bit(db.disk.peek(page), 999))

    corrupt_a_leaf(min)
    assert db.recovery.call(table.lookup, "pk", 0).found
    sweeper = RecoveryManager(db, max_heals=4, registry=registry)
    corrupt_a_leaf(max)
    assert sweeper.call(table.lookup, "pk", 199).found
    counts = registry.snapshot()
    assert db.recovery.stats.index_rebuilds == sweeper.stats.index_rebuilds == 1
    assert counts["recovery"]["index_rebuilds"] == 2
    assert counts["faults"]["recovered"] == 2 == counts["faults"]["detected"]
    registry.reset()
    corrupt_a_leaf(min)
    assert sweeper.call(table.lookup, "pk", 0).found
    assert registry.snapshot()["recovery"]["index_rebuilds"] == 1
    assert (db.recovery.stats.recovered, sweeper.stats.recovered) == (1, 2)
