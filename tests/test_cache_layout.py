"""Cache geometry: slot alignment, stable point, bucket ordering."""

from binascii import crc_hqx

import pytest

from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.layout import (
    ITEM_CHECKSUM_SIZE,
    ITEM_HEADER_SIZE,
    ZERO_CHECKSUM,
    checksum,
    item_size_for_payload,
)
from repro.errors import ReproError
from repro.storage.constants import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE, PageType
from repro.storage.page import SlottedPage


def page_with(n_records=0, record_size=20, page_size=1024):
    page = SlottedPage.format(bytearray(page_size), 1, PageType.BTREE_LEAF)
    for i in range(n_records):
        page.insert_at(i, bytes([i % 251]) * record_size)
    return page


def test_item_size():
    assert item_size_for_payload(15) == ITEM_HEADER_SIZE + 15 + ITEM_CHECKSUM_SIZE
    with pytest.raises(ReproError):
        item_size_for_payload(0)


def test_checksum_never_zero_and_detects_changes():
    zero_item = bytes(ITEM_HEADER_SIZE + 4)
    assert crc_hqx(zero_item, 0) == 0  # a CRC's zero is a real value...
    assert checksum(zero_item) == ZERO_CHECKSUM != 0  # ...stored remapped
    one = zero_item[:-1] + b"\x01"
    assert checksum(one) == crc_hqx(one, 0) not in (0, ZERO_CHECKSUM)


def test_slots_are_aligned_to_item_size():
    page = page_with(3)
    geo = IndexCache(payload_size=15, entry_size=24).geometry(page)
    for offset in map(geo.slot_offset, range(geo.num_slots)):
        assert offset % geo.item_size == 0
    lo, hi = page.free_window()
    for offset in map(geo.slot_offset, range(geo.num_slots)):
        assert offset >= lo
        assert offset + geo.item_size <= hi


def test_num_slots_shrinks_as_page_fills():
    page = page_with(0)
    geo0 = IndexCache(15, 24).geometry(page)
    for i in range(10):
        page.insert_at(i, b"r" * 20)
    geo1 = IndexCache(15, 24).geometry(page)
    assert geo1.num_slots < geo0.num_slots


def test_zero_slots_when_window_tiny():
    page = page_with(0, page_size=128)
    while True:
        try:
            page.insert_at(page.slot_count, b"r" * 16)
        except Exception:
            break
    geo = IndexCache(30, 20).geometry(page)
    assert geo.num_slots == 0
    assert [geo.slot_offset(i) for i in range(geo.num_slots)] == []


def test_slot_offset_bounds():
    page = page_with(0)
    geo = IndexCache(15, 24).geometry(page)
    with pytest.raises(ReproError):
        geo.slot_offset(geo.num_slots)
    with pytest.raises(ReproError):
        geo.slot_offset(-1)


def test_stable_point_formula():
    page = page_with(0, page_size=4096)
    entry_size = 16
    geo = IndexCache(15, entry_size).geometry(page)
    usable = 4096 - PAGE_HEADER_SIZE - PAGE_FOOTER_SIZE
    expected = PAGE_HEADER_SIZE + usable * 4 / (entry_size + 4)
    assert geo.stable_point == pytest.approx(expected)
    # with K >> D the stable point sits near the directory end (low side)
    assert geo.stable_point < 4096 / 2


def test_stable_point_is_where_regions_meet():
    """Fill a page completely; the final free window must straddle S."""
    page = page_with(0, page_size=1024)
    entry_size = 20
    geo = IndexCache(10, entry_size).geometry(page)
    s = geo.stable_point
    while True:
        try:
            page.insert_at(page.slot_count, b"k" * entry_size)
        except Exception:
            break
    lo, hi = page.free_window()
    assert lo - (entry_size + 4) <= s <= hi + (entry_size + 4)


def test_buckets_order_by_distance_from_s():
    page = page_with(0)
    geo = IndexCache(15, 24).geometry(page)
    ranked = geo.slots_by_stability()
    s = geo.stable_point
    half = geo.item_size / 2
    distances = [abs(geo.slot_offset(i) + half - s) for i in ranked]
    assert distances == sorted(distances)


def test_buckets_partition_all_slots():
    page = page_with(0)
    geo = IndexCache(15, 24).geometry(page)
    buckets = geo.buckets(4)
    flattened = [s for b in buckets for s in b]
    assert sorted(flattened) == list(range(geo.num_slots))
    assert all(len(b) == 4 for b in buckets[:-1])
    with pytest.raises(ReproError):
        geo.buckets(0)
