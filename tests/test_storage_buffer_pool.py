"""BufferPool: pinning, eviction, write-back, hit accounting, cost hooks."""

import gc
import weakref

import pytest

from repro.errors import BufferPoolError, CorruptPageError
from repro.obs import NULL_REGISTRY
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.page import DECODE_AFTER, SlottedPage


def make_pool(capacity=4, hook=None):
    disk = SimulatedDisk(256)
    return BufferPool(disk, capacity, cost_hook=hook), disk


def test_new_page_is_pinned_and_dirty():
    pool, disk = make_pool()
    page = pool.new_page(PageType.HEAP)
    assert len(pool._frames) == 1
    pool.unpin(page.page_id)
    pool.flush(page.page_id)
    assert disk.writes == 1


def test_fetch_hit_vs_miss_counting():
    pool, disk = make_pool()
    page = pool.new_page(PageType.HEAP)
    pid = page.page_id
    pool.unpin(pid, dirty=True)
    pool.fetch(pid)
    pool.unpin(pid)
    assert pool.hits == 1
    assert pool.misses == 0
    pool.flush_all()
    pool.drop_clean()
    pool.fetch(pid)
    pool.unpin(pid)
    assert pool.misses == 1
    assert pool.hits and pool.misses  # 0 < hit rate < 1


def test_eviction_lru_prefers_oldest():
    pool, disk = make_pool(capacity=2)
    p0 = pool.new_page(PageType.HEAP).page_id
    pool.unpin(p0)
    p1 = pool.new_page(PageType.HEAP).page_id
    pool.unpin(p1)
    pool.fetch(p0)  # p0 recently used
    pool.unpin(p0)
    pool.new_page(PageType.HEAP)  # must evict p1 (least recent)
    assert pool.is_resident(p0)
    assert not pool.is_resident(p1)
    assert pool.evictions == 1


def test_eviction_writes_back_dirty_pages():
    pool, disk = make_pool(capacity=1)
    p0 = pool.new_page(PageType.HEAP)
    p0.insert(b"payload")
    pid0 = p0.page_id
    pool.unpin(pid0, dirty=True)
    p1 = pool.new_page(PageType.HEAP)  # evicts p0
    assert disk.writes == 1
    pool.unpin(p1.page_id, dirty=True)
    # the data survived the round trip
    page = pool.fetch(pid0)
    assert page.read(0) == b"payload"


def test_pinned_pages_cannot_be_evicted():
    pool, _ = make_pool(capacity=1)
    pool.new_page(PageType.HEAP)  # stays pinned
    with pytest.raises(BufferPoolError):
        pool.new_page(PageType.HEAP)


def test_unpin_without_pin_raises():
    pool, _ = make_pool()
    with pytest.raises(BufferPoolError):
        pool.unpin(0)
    page = pool.new_page(PageType.HEAP)
    pool.unpin(page.page_id)
    with pytest.raises(BufferPoolError):
        pool.unpin(page.page_id)


def test_context_manager_pins_and_unpins():
    pool, _ = make_pool()
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid, dirty=True)
    with pool.page(pid) as page:
        assert page.page_id == pid
    # after exit the frame is evictable again
    pool.flush_all()
    pool.drop_clean()
    assert not pool.is_resident(pid)


def test_context_manager_restores_snapshot_and_unpins_clean_on_error():
    pool, disk = make_pool()
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid, dirty=True)
    pool.flush(pid)
    before = bytes(pool.fetch(pid).buffer)
    pool.unpin(pid)
    with pytest.raises(RuntimeError):
        with pool.page(pid, dirty=True) as page:
            page.insert(b"half-applied mutation")
            raise RuntimeError("boom")
    # The torn in-memory state was rolled back, the pin released, and the
    # frame left clean (no write-back of the aborted mutation scheduled).
    assert pool.pinned_pages == []
    assert bytes(pool.fetch(pid).buffer) == before
    pool.unpin(pid)
    pool.flush_all()
    pool.drop_clean()
    assert not pool.is_resident(pid)  # clean, so droppable


def clean_pages(pool, n):
    """``n`` flushed, unpinned heap pages holding one record each."""
    pids = []
    for i in range(n):
        page = pool.new_page(PageType.HEAP)
        page.insert(bytes([65 + i]) * 8)
        pool.unpin(page.page_id, dirty=True)
        pids.append(page.page_id)
    pool.flush_all()
    return pids


def test_a_failed_reformat_restores_the_bytes_keys_and_type_code():
    """WAL redo reformats a blank page inside a ``dirty=True`` bracket; if
    the body then raises, the view's type code and key prefixes must go
    back with the bytes, or the next pin reads a type the bytes lack."""
    pool, _ = make_pool()
    page = pool.new_page(PageType.BTREE_LEAF)
    pid = page.page_id
    for i in range(6):
        page.insert_at(i, bytes([i]) * 8)
    pool.unpin(pid, dirty=True)
    page.searches = DECODE_AFTER
    assert page.bisect(bytes([3]) * 4) == (3, True)
    keys, before = list(page.keys), bytes(page.buffer)
    with pytest.raises(RuntimeError):
        with pool.page(pid, dirty=True) as view:
            view.reformat(pid, PageType.HEAP)
            assert (view.type_code, view.keys) == (PageType.HEAP, None)
            raise RuntimeError("torn redo")
    with pool.page(pid) as view:
        assert bytes(view.buffer) == before
        assert view.type_code == PageType.BTREE_LEAF == view.buffer[6]
        assert view.keys is None
        assert view.bisect(bytes([3]) * 4) == (3, True)
        assert view.keys == keys
    assert pool.pinned_pages == []


def test_every_pin_of_a_frame_hands_out_its_one_view():
    pool, _ = make_pool()
    (pid,) = clean_pages(pool, 1)
    assert pool.fetch(pid) is pool.fetch(pid)
    with pool.page(pid) as read, pool.page(pid, dirty=True) as write:
        assert read is write is pool.fetch(pid)
    for _ in range(3):
        pool.unpin(pid)
    assert pool.pinned_pages == []


class _WeakView(SlottedPage):
    """A view a weak reference can watch (``SlottedPage`` has no slot for one)."""

    __slots__ = ("__weakref__",)


def test_evicted_and_dropped_frames_and_their_views_die_by_refcount(monkeypatch):
    """The frame holds its view and the view holds only bytes: an evicted
    frame, the frames of a dropped pool, and their views need no cycle
    collector."""
    monkeypatch.setattr("repro.storage.buffer_pool.SlottedPage", _WeakView)
    gc.collect()
    gc.disable()
    try:
        pool = BufferPool(SimulatedDisk(256), 2, registry=NULL_REGISTRY)
        first, second, _ = clean_pages(pool, 3)  # evicts the first
        frame = pool._frames[second]
        evicted = weakref.ref(frame), weakref.ref(frame.view)
        with pool.page(first):  # evicts the second, now the oldest
            pass
        assert not pool.is_resident(second)
        frame = pool._frames[first]
        dropped = weakref.ref(frame), weakref.ref(frame.view)
        del frame
        assert [ref() for ref in evicted] == [None, None]
        del pool
        assert [ref() for ref in dropped] == [None, None]
    finally:
        gc.enable()


def test_bracket_on_a_quarantined_page_raises_and_pins_nothing():
    pool, _ = make_pool()
    (pid,) = clean_pages(pool, 1)
    pool.quarantine(pid)
    for dirty in (False, True):
        with pytest.raises(CorruptPageError):
            with pool.page(pid, dirty=dirty):
                pytest.fail("the body must not run")
        assert pool.pinned_pages == []


def test_nested_brackets_on_one_page_count_their_pins():
    pool, _ = make_pool()
    (pid,) = clean_pages(pool, 1)
    frame = pool._frames[pid]
    with pool.page(pid) as outer:
        assert frame.pin_count == 1
        with pool.page(pid, dirty=True) as inner:
            assert frame.pin_count == 2
            assert inner.buffer is outer.buffer
        assert (frame.pin_count, frame.dirty) == (1, True)
    assert frame.pin_count == 0 and pool.pinned_pages == []


@pytest.mark.parametrize("error", (RuntimeError, KeyboardInterrupt, GeneratorExit))
def test_failed_write_bracket_leaves_an_already_dirty_frame_as_it_was(error):
    """The frame carries an earlier, logged change: the failed bracket
    rolls back its own bytes only, and ``dirty`` / ``page_lsn`` /
    ``rec_lsn`` still describe that earlier change.  ``KeyboardInterrupt``
    and ``GeneratorExit`` are ``BaseException``s and take the same path."""
    pool, _ = make_pool()
    (pid,) = clean_pages(pool, 1)
    with pool.page(pid, dirty=True, lsn=7) as page:
        page.insert(b"logged at 7")
    with pool.page(pid, dirty=True, lsn=9) as page:
        page.insert(b"logged at 9")
        before = bytes(page.buffer)
    frame = pool._frames[pid]
    assert (frame.dirty, frame.page_lsn, frame.rec_lsn) == (True, 9, 7)
    with pytest.raises(error):
        with pool.page(pid, dirty=True, lsn=11) as page:
            page.insert(b"half-applied")
            page.delete(0)
            raise error
    assert bytes(frame.view.buffer) == before
    assert (frame.dirty, frame.page_lsn, frame.rec_lsn) == (True, 9, 7)
    assert pool.dirty_rec_lsns() == [7] and pool.pinned_pages == []


def test_failed_read_bracket_unpins_and_keeps_what_the_body_wrote():
    """Only the ``dirty=True`` kind snapshots: a read bracket's body may
    write the index cache into the free window, and those bytes stay."""
    pool, _ = make_pool()
    (pid,) = clean_pages(pool, 1)
    with pytest.raises(RuntimeError):
        with pool.page(pid) as page:
            lo, _hi = page.free_window()
            page.buffer[lo] = 0xEE
            raise RuntimeError("boom")
    frame = pool._frames[pid]
    assert (frame.view.buffer[lo], frame.dirty, frame.pin_count) == (0xEE, False, 0)


def test_stop_iteration_from_the_body_comes_out_as_stop_iteration():
    pool, _ = make_pool()
    (pid,) = clean_pages(pool, 1)
    for dirty in (False, True):
        with pytest.raises(StopIteration):
            with pool.page(pid, dirty=dirty):
                next(iter(()))
    with pytest.raises(StopIteration):
        with pool.pages_many([pid]):
            next(iter(()))
    assert pool.pinned_pages == []


def test_pages_many_unpins_every_page_clean_however_the_body_ends():
    pool, _ = make_pool()
    pids = clean_pages(pool, 3)
    with pool.pages_many(pids + pids[:1]) as pages:
        assert sorted(pages) == pids and pool.pinned_pages == pids
    assert pool.pinned_pages == []
    with pytest.raises(RuntimeError):
        with pool.pages_many(pids) as pages:
            pages[pids[1]].insert(b"never written back")
            raise RuntimeError("boom")
    assert pool.pinned_pages == []
    assert not any(pool._frames[pid].dirty for pid in pids)


def test_pages_many_failing_half_way_leaves_no_pin():
    pool, _ = make_pool()
    pids = clean_pages(pool, 3)
    pool.quarantine(pids[1])
    with pytest.raises(CorruptPageError):
        with pool.pages_many(pids):
            pytest.fail("the body must not run")
    assert pool.pinned_pages == []


class _Hook:
    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def on_bp_hit(self):
        self.hits += 1

    def on_bp_miss(self):
        self.misses += 1

    def on_disk_write(self):
        self.writes += 1


def test_cost_hook_charging():
    hook = _Hook()
    pool, _ = make_pool(capacity=1, hook=hook)
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid, dirty=True)
    pool.fetch(pid)
    pool.unpin(pid)
    assert hook.hits == 1
    pool.new_page(PageType.HEAP)  # evicts dirty pid -> disk write
    assert hook.writes == 1
    pool.unpin(pid + 1)
    pool.fetch(pid)  # must come from disk now
    assert hook.misses == 1


def test_capacity_validation():
    disk = SimulatedDisk(256)
    with pytest.raises(BufferPoolError):
        BufferPool(disk, 0)


def test_reset_counters_keeps_obs_counters_by_default():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    disk = SimulatedDisk(256)
    pool = BufferPool(disk, 4, registry=registry)
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid)
    pool.fetch(pid)
    pool.unpin(pid)
    snap = registry.snapshot()["bufferpool"]
    assert snap["hit"] == 1
    assert snap["resident_pages"] == len(pool._frames)
    # The registry's reset zeroes the counters; the level gauge stays.
    registry.reset()
    snap = registry.snapshot()["bufferpool"]
    assert snap["hit"] == 0
    assert snap["resident_pages"] == len(pool._frames) == 1
    # And the pool keeps counting from zero.
    pool.fetch(pid)
    pool.unpin(pid)
    assert registry.snapshot()["bufferpool"]["hit"] == 1


def test_pinned_pages_tracking():
    pool, _ = make_pool()
    page = pool.new_page(PageType.HEAP)
    assert pool.pinned_pages == [page.page_id]
    pool.unpin(page.page_id)
    assert pool.pinned_pages == []


def test_frames_share_bytes_between_views():
    pool, _ = make_pool()
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid, dirty=True)
    with pool.page(pid, dirty=True) as view1:
        slot = view1.insert(b"shared")
    with pool.page(pid) as view2:
        assert view2.read(slot) == b"shared"


def test_reset_counters_resets_fault_counters_when_asked():
    """``registry.reset()`` zeroes the faults.* family the pool bumps."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    disk = SimulatedDisk(256)
    pool = BufferPool(disk, 4, registry=registry)
    # The pool's fault instruments are registry counters shared by name.
    registry.counter("faults.detected").inc(3)
    registry.counter("faults.recovered").inc(2)
    registry.counter("faults.unrecoverable").inc(1)
    registry.counter("faults.retries").inc(5)
    snap = registry.snapshot()["faults"]
    assert snap == {"detected": 3, "recovered": 2,
                    "unrecoverable": 1, "retries": 5}
    registry.reset()
    snap = registry.snapshot()["faults"]
    assert snap == {"detected": 0, "recovered": 0,
                    "unrecoverable": 0, "retries": 0}
    registry.counter("faults.retries").inc()
    assert registry.snapshot()["faults"]["retries"] == 1
