"""SlottedPage: heap-mode operations, layout invariants, clobber rules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidRidError, PageFormatError, PageFullError
from repro.storage.constants import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    SLOT_ENTRY_SIZE,
    PageType,
)
from repro.storage.page import SlottedPage

PAGE_SIZE = 512


def fresh_page(size: int = PAGE_SIZE) -> SlottedPage:
    return SlottedPage.format(bytearray(size), page_id=7, page_type=PageType.HEAP)


def test_format_initialises_header():
    page = fresh_page()
    page.verify()
    assert page.page_id == 7
    assert page.page_type is PageType.HEAP
    assert page.slot_count == 0
    lo, hi = page.free_window()
    assert lo == PAGE_HEADER_SIZE
    assert hi == PAGE_SIZE - PAGE_FOOTER_SIZE
    assert page.cache_csn == 0
    assert page.next_page is None
    assert page.level == 0


def test_insert_read_round_trip():
    page = fresh_page()
    slot = page.insert(b"hello")
    assert page.read(slot) == b"hello"
    assert page.slot_count == 1


def test_insert_consumes_window_from_both_ends():
    page = fresh_page()
    lo0, hi0 = page.free_window()
    page.insert(b"x" * 10)
    lo1, hi1 = page.free_window()
    assert lo1 == lo0 + SLOT_ENTRY_SIZE  # directory grew up
    assert hi1 == hi0 - 10               # record region grew down


def test_insert_until_full_raises():
    page = fresh_page()
    count = 0
    with pytest.raises(PageFullError):
        while True:
            page.insert(b"y" * 20)
            count += 1
    assert count > 0
    page.verify()  # page remains well-formed after the failed insert


def test_empty_record_rejected():
    with pytest.raises(PageFullError):
        fresh_page().insert(b"")


def test_update_same_length():
    page = fresh_page()
    slot = page.insert(b"aaaa")
    page.update(slot, b"bbbb")
    assert page.read(slot) == b"bbbb"


def test_update_length_change_rejected():
    page = fresh_page()
    slot = page.insert(b"aaaa")
    with pytest.raises(PageFullError):
        page.update(slot, b"bbbbb")


def test_delete_tombstones_and_reuse():
    page = fresh_page()
    s0 = page.insert(b"first")
    s1 = page.insert(b"second")
    page.delete(s0)
    assert not page.slot_is_live(s0)
    assert page.slot_is_live(s1)
    with pytest.raises(InvalidRidError):
        page.read(s0)
    with pytest.raises(InvalidRidError):
        page.delete(s0)
    # next insert reuses the tombstoned directory entry
    s2 = page.insert(b"third")
    assert s2 == s0
    assert page.read(s2) == b"third"


def test_records_iterates_live_only():
    page = fresh_page()
    page.insert(b"a")
    s1 = page.insert(b"b")
    page.insert(b"c")
    page.delete(s1)
    assert [data for _, data in page.records()] == [b"a", b"c"]
    assert list(page.live_slots()) == [0, 2]


def test_slot_out_of_range():
    page = fresh_page()
    with pytest.raises(InvalidRidError):
        page.read(0)
    page.insert(b"a")
    with pytest.raises(InvalidRidError):
        page.read(1)


def test_compact_reclaims_dead_bytes():
    page = fresh_page()
    s0 = page.insert(b"a" * 50)
    s1 = page.insert(b"b" * 50)
    page.delete(s0)
    _, hi_before = page.free_window()
    page.compact()
    _, hi_after = page.free_window()
    assert hi_after == hi_before + 50
    assert page.read(s1) == b"b" * 50


def test_compact_zeroes_free_window():
    page = fresh_page()
    page.insert(b"a" * 30)
    lo, hi = page.free_window()
    page.buffer[lo:hi] = b"\xab" * (hi - lo)  # simulate cache contents
    page.compact()
    lo, hi = page.free_window()
    assert bytes(page.buffer[lo:hi]) == bytes(hi - lo)


def test_fill_factor_tracks_live_data():
    page = fresh_page()
    assert page.fill_factor == 0.0
    slots = [page.insert(b"z" * 20) for _ in range(5)]
    full_fill = page.fill_factor
    assert full_fill == pytest.approx(5 * 24 / page.usable_bytes)
    page.delete(slots[0])
    assert page.fill_factor < full_fill


def test_verify_detects_corruption():
    page = fresh_page()
    page.buffer[0] = 0xFF  # smash the magic
    with pytest.raises(PageFormatError):
        page.verify()


def test_too_small_buffer_rejected():
    with pytest.raises(PageFormatError):
        SlottedPage(bytearray(8))


def test_oversized_buffer_rejected():
    with pytest.raises(PageFormatError):
        SlottedPage(bytearray(70000))


def test_next_page_and_level_round_trip():
    page = fresh_page()
    page.next_page = 12345
    page.level = 3
    assert page.next_page == 12345
    assert page.level == 3
    page.next_page = None
    assert page.next_page is None


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=1, max_size=30), max_size=12))
def test_insert_read_many_property(records):
    page = fresh_page(1024)
    stored = {}
    for data in records:
        try:
            slot = page.insert(data)
        except PageFullError:
            break
        stored[slot] = data
    for slot, data in stored.items():
        assert page.read(slot) == data
    page.verify()


# -- byte-layout pins ---------------------------------------------------------
#
# Literals taken before the page accessors moved to compiled struct codecs:
# the Figure-1 bytes a fixed script leaves behind must never change.

def _scripted_heap_page() -> SlottedPage:
    page = fresh_page()
    slots = [page.insert(bytes([65 + i]) * (5 + 3 * i)) for i in range(8)]
    page.delete(slots[1])
    page.delete(slots[4])
    page.delete(slots[6])
    assert page.insert(b"reuse-one") == slots[1]   # lowest tombstone first
    assert page.insert(b"reuse-two!") == slots[4]
    page.update(slots[2], b"u" * 11)               # same-length overwrite
    page.cache_csn = 0x0102030405060708
    page.next_page = 99
    page.level = 2
    page.place_at(11, b"placed-past-the-end")      # slots 8..10 -> tombstones
    page.reserve_tombstones(14)
    page.delete(slots[0])
    return page


def test_heap_page_bytes_pinned():
    import hashlib

    page = _scripted_heap_page()
    before = hashlib.sha256(page.buffer).hexdigest()
    assert before == (
        "4d25d20bb77b0c05eba5a71197179506f525e3f479ba8ae520ad885162ead3c5"
    )
    assert page.slot_count == 14
    assert list(page.live_slots()) == [1, 2, 3, 4, 5, 7, 11]
    assert page.free_window() == (88, 346)
    page.compact()
    assert hashlib.sha256(page.buffer).hexdigest() == (
        "66e703bab03035d7ee3217bbb844d46723209a558c20b6a4644aa6e4336cb522"
    )
    assert page.free_window() == (88, 399)
    assert page.read(11) == b"placed-past-the-end"
    assert page.live_record_bytes == 109
    page.verify()
    # Redo into a tight page: place_at must compact once to make room.
    while True:
        try:
            page.insert(b"f" * 40)
        except PageFullError:
            break
    page.delete(2)
    page.delete(5)
    assert page.free_bytes < 32
    page.place_at(5, b"r" * 32)
    assert hashlib.sha256(page.buffer).hexdigest() == (
        "62538364b4f0fb3d1550b408d8f01dde7fc5765bf69a6d6027de82ffcb7df5d8"
    )
    page.verify()


def test_records_reads_the_live_directory_between_steps():
    """A consumer that deletes a *later* slot between two ``next()`` calls
    never sees it: the generator walks the live bytes one slot per step
    (``HeapFile.scan`` holds the pin across yields and callers do write in
    between), so it may not snapshot the directory up front."""
    page = fresh_page()
    for data in (b"a", b"b", b"c", b"d"):
        page.insert(data)
    walk = page.records()
    assert next(walk) == (0, b"a")
    page.delete(2)
    assert list(walk) == [(1, b"b"), (3, b"d")]
    slots = page.live_slots()
    assert next(slots) == 0
    page.delete(3)
    assert list(slots) == [1]


def test_database_disk_bytes_pinned():
    """Every page a small seeded engine leaves on disk — heap pages, B+Tree
    nodes, and leaves whose free window holds index-cache slots and CSN
    stamps written by served lookups — hashed after ``flush_all``."""
    import hashlib

    from repro import Database, Schema, UINT32, UINT64, char

    db = Database(page_size=1024, data_pool_pages=64, seed=7)
    users = db.create_table("users", Schema.of(
        ("user_id", UINT64), ("username", char(12)),
        ("karma", UINT32), ("posts", UINT32),
    ))
    db.create_index("users", "users_pk", ("user_id",))
    db.create_cached_index(
        "users", "users_by_name", ("username",), cached_fields=("karma", "posts"),
    )
    for i in range(400):
        users.insert({"user_id": i, "username": f"user{i:04d}",
                      "karma": (i * 7) % 500, "posts": i % 40})
    for i in range(0, 400, 3):
        for _ in range(2):  # the second lookup is served from the leaf
            users.lookup("users_by_name", f"user{i:04d}", ("karma", "posts"))
    for i in range(0, 400, 11):
        users.update("users_pk", i, {"karma": 9000 + i})
        users.lookup("users_by_name", f"user{i:04d}", ("karma",))
    for i in range(5, 400, 17):
        users.delete("users_pk", i)
    for i in range(400, 440):
        users.insert({"user_id": i, "username": f"user{i:04d}",
                      "karma": i % 500, "posts": i % 40})
    stats = users.index("users_by_name").stats
    assert stats.answered_from_cache > 100
    db.data_pool.flush_all()
    db.index_pool.flush_all()
    digest = hashlib.sha256()
    for page_id in range(db.disk.num_pages):
        digest.update(db.disk.peek(page_id))
    assert (db.disk.num_pages, stats.answered_from_cache) == (56, 134)
    assert digest.hexdigest() == (
        "1e485f83907ac827ccaac5ece8365908939591b95432b850f20d69f9962ceec8"
    )


def test_slot_errors_are_rid_errors_not_codec_errors():
    """Slot -1, slot == slot_count and a tombstoned slot raise
    ``InvalidRidError`` from every accessor — never ``struct.error``."""
    import struct

    page = fresh_page()
    page.insert(b"live")
    dead = page.insert(b"dead")
    page.delete(dead)
    for call in (page.read, page.delete, page.slot_is_live,
                 lambda slot: page.update(slot, b"xxxx")):
        for slot in (-1, page.slot_count, 10_000):
            with pytest.raises(InvalidRidError) as caught:
                call(slot)
            assert not isinstance(caught.value, struct.error)
    for call in (page.read, page.delete, lambda slot: page.update(slot, b"dead")):
        with pytest.raises(InvalidRidError):
            call(dead)
    with pytest.raises(InvalidRidError):
        page.place_at(0, b"over a live slot")


def test_checksum_helpers_leave_no_buffer_export_behind():
    """The CRC runs over a short-lived ``memoryview``; if one outlived the
    call, resizing the frame's ``bytearray`` would raise ``BufferError``."""
    from repro.storage.page import (
        compute_page_checksum,
        page_checksum_ok,
        read_page_checksum,
        stamp_page_checksum,
    )

    page = fresh_page()
    page.insert(b"payload")
    buffer = page.buffer
    assert read_page_checksum(buffer) == 0
    crc = stamp_page_checksum(buffer)
    assert crc == compute_page_checksum(buffer) == read_page_checksum(buffer)
    assert crc == compute_page_checksum(bytes(buffer))  # disk pages are bytes
    assert buffer[27:31] == crc.to_bytes(4, "little")
    assert page_checksum_ok(buffer)
    buffer[40] ^= 0x01
    assert not page_checksum_ok(buffer)
    buffer.extend(b"\x00")  # would raise BufferError under a live export
    assert page_checksum_ok(bytearray(512))  # never-stamped zero page
