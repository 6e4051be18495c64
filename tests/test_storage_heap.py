"""HeapFile: RIDs, placement modes, utilization statistics."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidRidError, PageFullError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, Rid, RID_SIZE


def make_heap(append_only=False, page_size=512):
    pool = BufferPool(SimulatedDisk(page_size), 1024)
    return HeapFile(pool, append_only=append_only)


def compact(heap):
    """Reclaim tombstoned bytes on every page, then let the heap re-read
    its free space from the pages, as a WAL restore does."""
    for page_id in heap.page_ids:
        with heap.pool.page(page_id, dirty=True) as page:
            page.compact()
    heap.adopt_pages(heap.page_ids)


def page_fills(heap):
    """Each heap page's live-data fill factor, read off the page."""
    fills = []
    for page_id in heap.page_ids:
        with heap.pool.page(page_id) as page:
            fills.append(page.fill_factor)
    return fills


def test_insert_fetch_round_trip():
    heap = make_heap()
    rid = heap.insert(b"record-1")
    assert heap.fetch(rid) == b"record-1"
    assert heap.num_records == 1


def test_rid_encoding_round_trip():
    rid = Rid(123456, 42)
    data = rid.to_bytes()
    assert len(data) == RID_SIZE
    assert Rid.from_bytes(data) == rid


def test_rid_encoding_rejects_bad_width():
    with pytest.raises(InvalidRidError):
        Rid.from_bytes(b"\x00" * 7)


def test_update_in_place():
    heap = make_heap()
    rid = heap.insert(b"aaaa")
    heap.update(rid, b"bbbb")
    assert heap.fetch(rid) == b"bbbb"


def test_delete_then_fetch_raises():
    heap = make_heap()
    rid = heap.insert(b"gone")
    heap.delete(rid)
    with pytest.raises(InvalidRidError):
        heap.fetch(rid)
    assert heap.num_records == 0


def test_foreign_rid_rejected():
    heap = make_heap()
    heap.insert(b"x")
    with pytest.raises(InvalidRidError):
        heap.fetch(Rid(999, 0))


def test_first_fit_reuses_freed_space():
    heap = make_heap()
    rids = [heap.insert(b"z" * 40) for _ in range(30)]
    pages_before = heap.num_pages
    for rid in rids[:10]:
        heap.delete(rid)
    compact(heap)
    for _ in range(10):
        heap.insert(b"z" * 40)
    assert heap.num_pages == pages_before  # holes were reused


def test_append_only_never_reuses():
    heap = make_heap(append_only=True)
    rids = [heap.insert(b"z" * 40) for _ in range(30)]
    pages_before = heap.num_pages
    for rid in rids[:10]:
        heap.delete(rid)
    compact(heap)
    last_page = heap.page_ids[-1]
    new_rids = [heap.insert(b"z" * 40) for _ in range(10)]
    # every new record landed at or past the old tail page
    assert all(r.page_id >= last_page for r in new_rids)
    assert heap.num_pages >= pages_before


def test_scan_yields_all_live_records():
    heap = make_heap()
    rids = [heap.insert(bytes([i]) * 10) for i in range(20)]
    heap.delete(rids[3])
    scanned = dict(heap.scan())
    assert len(scanned) == 19
    assert rids[3] not in scanned
    assert scanned[rids[4]] == bytes([4]) * 10


def test_fill_factor_range():
    heap = make_heap()
    assert page_fills(heap) == []  # no page: nothing to fill
    for _ in range(50):
        heap.insert(b"q" * 30)
    fills = page_fills(heap)
    assert 0.0 < sum(fills) / len(fills) <= 1.0


def test_page_utilization_reflects_hot_fraction():
    """The paper's 2%-utilization observation: scattered hot tuples mean
    most of every fetched page is useless bytes."""
    heap = make_heap()
    rids = [heap.insert(b"r" * 30) for i in range(70)]
    hot = {rid for i, rid in enumerate(rids) if i % 14 == 0}  # 1-ish per page
    live = Counter(rid.page_id for rid in rids)
    useful = Counter(rid.page_id for rid in hot)
    utils = [useful[page_id] / live[page_id] for page_id in heap.page_ids]
    assert all(0.0 <= u <= 0.5 for u in utils)


def test_size_bytes():
    heap = make_heap(page_size=512)
    heap.insert(b"x")
    assert heap.size_bytes == 512 * heap.num_pages


@settings(max_examples=30)
@given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=60))
def test_heap_round_trip_property(records):
    heap = make_heap(page_size=1024)
    rids = [heap.insert(r) for r in records]
    assert len(set(rids)) == len(rids)  # RIDs are unique
    for rid, expected in zip(rids, records):
        assert heap.fetch(rid) == expected


def test_record_no_empty_page_can_take_is_refused_before_allocating():
    """Three 5000-byte inserts on a 4096-byte disk used to leave the heap
    owning 1, 2, 3 empty pages (allocated, unpinned dirty, never noted in
    the free-space map), and the next small insert allocated a fourth."""
    heap = make_heap(page_size=4096)
    pool = heap.pool
    for _ in range(3):
        with pytest.raises(PageFullError):
            heap.insert(b"x" * 5000)
        assert (heap.num_pages, pool.disk.num_pages, heap.num_records) == (0, 0, 0)
        assert (len(pool._frames), pool.pinned_pages) == (0, [])
    rid = heap.insert(b"z" * 100)
    assert (rid.page_id, heap.num_pages, pool.disk.num_pages) == (0, 1, 1)
    biggest = b"y" * (4096 - 32 - 4 - 4)  # header, footer, one directory entry
    assert heap.fetch(heap.insert(biggest)) == biggest
    for refused in (biggest + b"y", b""):
        with pytest.raises(PageFullError):
            heap.insert(refused)
    assert (heap.num_pages, pool.disk.num_pages, heap.num_records) == (2, 2, 2)
    assert pool.pinned_pages == []


def test_rid_bytes_pinned():
    assert Rid(123456, 42).to_bytes().hex() == "40e201002a000000"
    assert Rid.from_bytes(bytes.fromhex("ffffffff01000000")) == Rid(0xFFFFFFFF, 1)


def test_scan_sees_deletes_made_between_steps():
    """``scan`` holds the page pin across yields and callers do write in
    between (delete-while-scanning loops): a later slot of the *same*
    page deleted between two ``next()`` calls is never yielded."""
    heap = make_heap()
    rids = [heap.insert(bytes([i]) * 10) for i in range(6)]
    assert len({rid.page_id for rid in rids}) == 1
    walk = heap.scan()
    assert next(walk)[0] == rids[0]
    heap.delete(rids[2])
    heap.delete(rids[5])
    assert [rid for rid, _ in walk] == [rids[1], rids[3], rids[4]]
