"""Crash semantics of the cache (§2.1.2): volatility and restart CSNs.

The cache is explicitly non-durable: writes never dirty pages, so a crash
loses cache contents that never hit disk — harmless.  The dangerous case
is the opposite one: cache items that *did* reach disk (riding along when
a page was flushed for legitimate reasons) together with a lost in-memory
predicate log.  These tests pin down both the failure and the fix
(:meth:`CacheInvalidation.after_restart`).
"""

from __future__ import annotations

from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng

PAYLOAD = 10
ENTRY = 20


def tid(n):
    return n.to_bytes(8, "little")


def key(n):
    return n.to_bytes(8, "big")


def test_unflushed_cache_is_simply_lost():
    """Eviction of a clean page drops cache contents; data is unaffected."""
    disk = SimulatedDisk(512)
    pool = BufferPool(disk, 2)
    page = pool.new_page(PageType.BTREE_LEAF)
    pid = page.page_id
    page.insert_at(0, b"K" * ENTRY)
    pool.unpin(pid, dirty=True)
    pool.flush(pid)

    cache = IndexCache(PAYLOAD, ENTRY, rng=DeterministicRng(0))
    with pool.page(pid) as page:  # cache write: pinned, NOT dirtied
        cache.insert(page, tid(1), bytes(PAYLOAD))
        assert cache.probe(page, tid(1)) is not None
    pool.drop_clean()  # "crash": clean frames vanish
    with pool.page(pid) as page:
        assert page.read(0) == b"K" * ENTRY        # data survived
        assert cache.probe(page, tid(1)) is None   # cache did not


def test_restart_without_recovery_would_serve_stale_data():
    """Demonstrates the hazard a naive restart has (and why after_restart
    exists): persisted cache + lost predicate log + epoch collision."""
    page = SlottedPage.format(bytearray(512), 1, PageType.BTREE_LEAF)
    cache = IndexCache(PAYLOAD, ENTRY, rng=DeterministicRng(0))
    inv = CacheInvalidation()
    inv.validate_page(page, cache, key(0), key(9))
    cache.insert(page, tid(3), b"OLDOLDOLDO")
    # an update happens, noted in the (volatile) log; then we "crash"
    inv.note_update(key(3))
    persisted = bytes(page.buffer)  # this page had been flushed earlier

    # restart: naive fresh state collides with the persisted epoch
    page2 = SlottedPage(bytearray(persisted))
    naive = CacheInvalidation()
    naive.validate_page(page2, cache, key(0), key(9))
    assert cache.probe(page2, tid(3)) == b"OLDOLDOLDO"  # the stale read!


def test_after_restart_invalidates_persisted_caches():
    page = SlottedPage.format(bytearray(512), 1, PageType.BTREE_LEAF)
    cache = IndexCache(PAYLOAD, ENTRY, rng=DeterministicRng(0))
    inv = CacheInvalidation()
    inv.validate_page(page, cache, key(0), key(9))
    cache.insert(page, tid(3), b"OLDOLDOLDO")
    inv.note_update(key(3))
    persisted = bytes(page.buffer)

    page2 = SlottedPage(bytearray(persisted))
    recovered = CacheInvalidation.after_restart(page2.cache_csn)
    assert recovered.csn_index > (page2.cache_csn >> 32)
    zeroed = recovered.validate_page(page2, cache, key(0), key(9))
    assert zeroed
    assert cache.probe(page2, tid(3)) is None  # stale item gone


def test_after_restart_epoch_wraps_safely():
    recovered = CacheInvalidation.after_restart(0xFFFFFFFF << 32)
    assert recovered.csn_index >= 1


# -- WAL-era regressions ------------------------------------------------------
#
# PR 2 left a coverage gap here: heap pages corrupted at rest were
# "honestly unrecoverable" and no test pinned what a WAL changes about
# that.  These do.


def _wal_database():
    from repro.faults.injector import FaultInjector
    from repro.obs.registry import MetricsRegistry
    from repro.query.database import Database
    from repro.schema.schema import Schema
    from repro.schema.types import UINT32, char

    schema = Schema.of(("id", UINT32), ("name", char(12)), ("score", UINT32))
    metrics = MetricsRegistry()
    # 1024-byte pages: two 512-byte sectors, so torn writes can tear.
    injector = FaultInjector(seed=5, page_size=1024, registry=metrics)
    db = Database(
        seed=5, wal=True, page_size=1024, data_pool_pages=8,
        fault_injector=injector, metrics=metrics,
    )
    db.create_table("t", schema)
    db.create_index("t", "by_id", ("id",))
    return db, injector, metrics


def test_torn_heap_page_write_with_wal_recovers_the_page():
    """The PR-2 data-loss case, closed: a torn heap-page write is healed
    by materializing the page from its full WAL history."""
    from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

    db, injector, _metrics = _wal_database()
    table = db.table("t")
    for i in range(40):
        table.insert({"id": i, "name": f"n{i}", "score": i})
    heap_pages = set(table.heap.page_ids)

    injector.arm(FaultPlan.of(FaultSpec(
        FaultKind.TORN_WRITE, at_nth=1,
        page_filter=lambda p: p in heap_pages,
    )))
    db.data_pool.flush_all()  # the torn write lands at rest
    injector.disarm()
    db.data_pool.drop_clean()  # force re-reads from the torn disk state

    rows = db.recovery.call(
        lambda: {r["id"]: r["score"] for r in table.scan()}
    )
    assert rows == {i: i for i in range(40)}
    assert db.recovery.stats.heap_page_rebuilds == 1
    assert db.recovery.stats.unrecoverable == 0
    assert db.check().ok


def test_heap_page_without_wal_stays_honestly_unrecoverable():
    from repro.errors import CorruptPageError, RecoveryError
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
    from repro.query.database import Database
    from repro.schema.schema import Schema
    from repro.schema.types import UINT32

    schema = Schema.of(("id", UINT32),)
    injector = FaultInjector(seed=5, page_size=512)
    db = Database(seed=5, page_size=512, data_pool_pages=8,
                  fault_injector=injector)
    db.create_table("t", schema)
    table = db.table("t")
    for i in range(10):
        table.insert({"id": i})
    injector.arm(FaultPlan.of(FaultSpec(FaultKind.WRITE_BIT_FLIP, at_nth=1)))
    db.data_pool.flush_all()
    injector.disarm()
    db.data_pool.drop_clean()
    try:
        db.recovery.call(lambda: list(table.scan()))
        raise AssertionError("corrupt heap page should not heal without WAL")
    except (CorruptPageError, RecoveryError):
        pass
    assert db.recovery.stats.unrecoverable >= 1


def test_reset_counters_zeroes_wal_metrics():
    db, _injector, metrics = _wal_database()
    table = db.table("t")
    for i in range(20):
        table.insert({"id": i, "name": "x", "score": i})
    db.checkpoint()
    wal_stats = metrics.snapshot()["wal"]
    assert wal_stats["records"] > 0
    assert wal_stats["flushes"] > 0
    assert wal_stats["checkpoints"] == 1
    assert wal_stats["kind"]["insert"] == 20

    metrics.reset()
    wal_stats = metrics.snapshot()["wal"]
    assert wal_stats["records"] == 0
    assert wal_stats["bytes"] == 0
    assert wal_stats["flushes"] == 0
    assert wal_stats["checkpoints"] == 0
    assert wal_stats["kind"]["insert"] == 0
    assert wal_stats["group_commit"]["batch_records"]["count"] == 0
    # The writer keeps counting from zero.
    table.insert({"id": 20, "name": "x", "score": 20})
    assert metrics.snapshot()["wal"]["kind"]["insert"] == 1


def test_wal_on_and_off_runs_agree_and_group_commit_batches():
    """The log observes mutations, it never changes them: a seeded mixed
    workload answers identically with and without it, and group commit
    really batches (device appends ≪ records).  Counters are literals."""
    from repro.obs.registry import MetricsRegistry
    from repro.query.database import Database
    from repro.schema.schema import Schema
    from repro.schema.types import UINT32, UINT64, char
    from repro.workload.replay import build_mixed_trace, replay
    from tests.test_workload_replay import Answers

    def row(k):
        return {"k": k, "name": f"row{k:08d}", "n": k % 13}

    def run(wal: bool):
        db = Database(seed=11, wal=wal, data_pool_pages=64,
                      metrics=MetricsRegistry())
        schema = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))
        t = db.create_table("t", schema)
        db.create_index("t", "pk", ("k",))
        for k in range(300):
            t.insert(row(k))
        trace = build_mixed_trace(
            1_500, list(range(300)), row, lambda k: {"n": k * 31 % 1_000},
            lambda i: 300 + i, lookup_frac=0.3, update_frac=0.3,
            insert_frac=0.3, seed=11,
        )
        answers = Answers(t)
        result = replay(answers, "pk", trace, project=("k", "n"))
        if wal:
            db.checkpoint()
        return db, (result, answers.found, answers.updated, answers.deleted,
                    sorted(tuple(r.values()) for r in t.scan()))

    walled, with_wal = run(wal=True)
    _, without = run(wal=False)
    assert with_wal == without and sum(with_wal[1]) == 189
    stats = walled.metrics.snapshot()["wal"]
    assert (stats["records"], stats["bytes"], stats["flushes"]) == (
        1_015, 55_610, 127,
    )
    assert stats["flushes"] * 2 <= stats["records"]
