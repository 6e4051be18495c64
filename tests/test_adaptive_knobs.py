"""The live engine knobs behind the adaptive controller's safe setters."""

import pytest

from repro.core.hot_cold.manager import OnlineHotColdManager
from repro.errors import BufferPoolError, QueryError, WalError, WorkloadError
from repro.obs.registry import MetricsRegistry
from repro.obs.report import format_report
from repro.query.database import Database
from repro.schema import UINT32, UINT64, Schema, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import Rid
from repro.storage.page import PageType
from repro.wal.log import WalWriter

pytestmark = pytest.mark.obs

SCHEMA = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))


def gauge(registry, name):
    return registry.get(name).value


# -- BufferPool.set_capacity ----------------------------------------------


def make_pool(capacity=8):
    pool = BufferPool(SimulatedDisk(4096), capacity)
    pids = []
    for _ in range(capacity):
        page = pool.new_page(PageType.HEAP)
        pids.append(page.page_id)
        pool.unpin(page.page_id, dirty=True)
    return pool, pids


def test_pool_shrink_evicts_down_to_new_capacity():
    pool, _pids = make_pool(8)
    assert len(pool._frames) == 8
    pool.set_capacity(3)
    assert pool.capacity == 3
    assert len(pool._frames) <= 3


def test_pool_grow_keeps_residents():
    pool, pids = make_pool(4)
    pool.set_capacity(16)
    assert pool.capacity == 16
    assert len(pool._frames) == 4
    # Old pages still readable after the resize.
    page = pool.fetch(pids[0])
    assert page.page_id == pids[0]
    pool.unpin(pids[0])


def test_pool_refuses_nonpositive_and_pinned_shrink():
    pool, pids = make_pool(4)
    with pytest.raises(BufferPoolError):
        pool.set_capacity(0)
    pool.fetch(pids[0])
    pool.fetch(pids[1])          # two frames now pinned
    with pytest.raises(BufferPoolError):
        pool.set_capacity(1)
    pool.set_capacity(2)         # exactly the pinned frames is allowed
    assert pool.capacity == 2
    pool.unpin(pids[0])
    pool.unpin(pids[1])


# -- WalWriter.set_group_commit -------------------------------------------


def test_wal_group_commit_knob_updates_gauge_and_flushes_on_shrink():
    registry = MetricsRegistry()
    wal = WalWriter(registry=registry, group_commit_records=8)
    assert gauge(registry, "adaptive.knob.wal.group_commit_records") == 8.0
    wal.log_insert("t", Rid(0, 0), b"row")
    wal.log_insert("t", Rid(0, 1), b"row")
    assert len(wal._buffer) == 2
    wal.set_group_commit(1)      # tighter window: pending work flushes now
    assert wal.group_commit_records == 1
    assert len(wal._buffer) == 0
    assert gauge(registry, "adaptive.knob.wal.group_commit_records") == 1.0
    with pytest.raises(WalError):
        wal.set_group_commit(0)


# -- Database.set_pool_partition ------------------------------------------


def split_db(**kwargs):
    registry = MetricsRegistry()
    db = Database(
        data_pool_pages=16, index_pool_pages=16, metrics=registry, **kwargs
    )
    t = db.create_table("t", SCHEMA)
    db.create_cached_index("t", "pk", ("k",), cached_fields=("n",))
    for i in range(64):
        t.insert({"k": i, "name": f"row{i:08d}", "n": i % 13})
    return db, t, registry


def test_pool_partition_preserves_total_frames():
    db, t, registry = split_db()
    total = db.data_pool.capacity + db.index_pool.capacity
    data, index = db.set_pool_partition(0.75)
    assert (data, index) == (24, 8)
    assert db.data_pool.capacity + db.index_pool.capacity == total
    assert db.pool_partition == pytest.approx(0.75)
    assert gauge(registry, "adaptive.knob.pool.data_pages") == 24.0
    assert gauge(registry, "adaptive.knob.pool.index_pages") == 8.0
    # The database still answers correctly after the rebalance, both ways.
    db.set_pool_partition(0.2)
    for i in range(0, 64, 7):
        result = t.lookup("pk", i, ("k", "n"))
        assert result.found and result.values == {"k": i, "n": i % 13}


def test_pool_partition_validation():
    db, _t, _registry = split_db()
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(QueryError):
            db.set_pool_partition(bad)
    shared = Database(data_pool_pages=16)
    with pytest.raises(QueryError):
        shared.set_pool_partition(0.5)


# -- Database.set_cache_admission -----------------------------------------


def test_cache_admission_gates_fills_deterministically():
    db, t, _registry = split_db()
    index = t.index("pk")
    db.set_cache_admission(0.5)
    assert index.cache_admission == 0.5
    before = index.stats.cache_fills
    skipped_before = index.stats.fills_skipped_admission
    for i in range(64):
        t.lookup("pk", i, ("k", "n"))   # cold cache: every probe fills
    fills = index.stats.cache_fills - before
    skipped = index.stats.fills_skipped_admission - skipped_before
    assert fills > 0 and skipped > 0
    # Credit accounting: at 0.5 every other eligible fill is admitted.
    assert abs(fills - skipped) <= 1
    with pytest.raises(QueryError):
        db.set_cache_admission(1.5)


def test_cache_admission_inherited_by_future_indexes():
    registry = MetricsRegistry()
    db = Database(metrics=registry)
    db.set_cache_admission(0.25)
    t = db.create_table("t", SCHEMA)
    index = db.create_cached_index("t", "pk", ("k",), cached_fields=("n",))
    assert index.cache_admission == 0.25
    assert gauge(registry, "adaptive.knob.index_cache.admission") == 0.25
    db.set_cache_admission(1.0)
    assert index.cache_admission == 1.0
    assert t.index("pk") is index


# -- hot/cold manager knobs -----------------------------------------------


def make_manager(**kwargs):
    from repro.core.hot_cold.partitioner import HotColdPartitionedTable

    registry = MetricsRegistry()
    db = Database(page_size=4096, data_pool_pages=64)
    hc_schema = Schema.of(("item_id", UINT32), ("body", char(8)))
    for side in ("hot", "cold"):
        db.create_table(side, hc_schema, append_only=True)
        db.create_index(side, f"{side}_pk", ("item_id",))
    table = HotColdPartitionedTable(db.table("hot"), db.table("cold"))
    for i in range(40):
        table.insert({"item_id": i, "body": f"b{i}"}, hot=False)
    defaults = dict(hot_capacity=8, ops_per_epoch=1_000, registry=registry)
    defaults.update(kwargs)
    return OnlineHotColdManager(table, **defaults), registry


def test_hotcold_setters_update_gauges_and_validate():
    manager, registry = make_manager()
    assert gauge(registry, "adaptive.knob.hotcold.hot_capacity") == 8.0
    assert gauge(registry, "adaptive.knob.hotcold.ops_per_epoch") == 1_000.0
    manager.set_hot_capacity(16)
    manager.set_ops_per_epoch(50)
    assert manager.hot_capacity == 16
    assert manager.ops_per_epoch == 50
    assert gauge(registry, "adaptive.knob.hotcold.hot_capacity") == 16.0
    assert gauge(registry, "adaptive.knob.hotcold.ops_per_epoch") == 50.0
    with pytest.raises(WorkloadError):
        manager.set_hot_capacity(0)
    with pytest.raises(WorkloadError):
        manager.set_ops_per_epoch(-5)


def test_hotcold_shorter_epoch_takes_effect_at_next_lookup():
    manager, registry = make_manager(ops_per_epoch=10_000)
    for _ in range(30):
        manager.lookup(3)
    assert manager.table.hot.num_rows == 0       # epoch never reached
    manager.set_ops_per_epoch(10)
    manager.lookup(3)                            # accumulated ops trigger now
    assert registry.get("hotcold.rebalances").value == 1
    assert manager.table.is_hot(3)


def test_hotcold_hit_miss_counters_feed_the_sampler_rule():
    manager, registry = make_manager(ops_per_epoch=5)
    for _ in range(10):
        manager.lookup(1)                        # triggers a rebalance at 5
    hits = registry.get("hotcold.hit").value
    misses = registry.get("hotcold.miss").value
    assert hits + misses == 10
    assert hits > 0                              # post-promotion lookups hit
    assert misses > 0                            # pre-promotion lookups missed


# -- report rendering ------------------------------------------------------


def test_format_report_groups_knob_gauges_without_controller():
    _db, _t, registry = split_db(wal=True)
    report = format_report(registry, title="engine metrics")
    assert "engine metrics — knobs" in report
    assert "adaptive.knob.pool.data_pages" in report
    assert "adaptive.knob.wal.group_commit_records" in report
    # Controller-activity counters (none exist here) must not invent a
    # section; knob gauges alone make up the knobs table.
    assert "engine metrics — adaptive" not in report
