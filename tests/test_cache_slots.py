"""IndexCache slot I/O: write/read/clear, clobber detection, probe/insert."""

from binascii import crc_hqx

import pytest

from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.layout import ZERO_CHECKSUM, checksum
from repro.core.index_cache.policy import RandomPolicy
from repro.errors import ReproError
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng

PAYLOAD = 12
ENTRY = 24


def make_page(page_size=1024):
    return SlottedPage.format(bytearray(page_size), 3, PageType.BTREE_LEAF)


def make_cache(seed=0):
    return IndexCache(PAYLOAD, ENTRY, rng=DeterministicRng(seed))


def tid(n: int) -> bytes:
    return n.to_bytes(8, "little")


def payload(n: int) -> bytes:
    return bytes([n % 251]) * PAYLOAD


def test_write_read_slot():
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    cache.write_slot(page, geo, 0, tid(1), payload(1))
    assert cache.read_slot(page, geo, 0) == (tid(1), payload(1))


def test_zeroed_slot_reads_empty():
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    assert cache.read_slot(page, geo, 0) is None
    cache.write_slot(page, geo, 0, tid(1), payload(1))
    cache.clear_slot(page, geo, 0)
    assert cache.read_slot(page, geo, 0) is None


def test_clobbered_slot_reads_empty():
    """Index growth may overwrite any byte of a slot; the checksum must
    catch it — this is the safety property of §2.1.1."""
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    cache.write_slot(page, geo, 0, tid(7), payload(7))
    off = geo.slot_offset(0)
    page.buffer[off + 3] ^= 0xFF  # a key byte lands mid-slot
    assert cache.read_slot(page, geo, 0) is None


def test_wrong_sizes_rejected():
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    with pytest.raises(ReproError):
        cache.write_slot(page, geo, 0, b"\x00" * 7, payload(0))
    with pytest.raises(ReproError):
        cache.write_slot(page, geo, 0, tid(0), b"\x00" * (PAYLOAD + 1))


def test_probe_hit_and_miss():
    page, cache = make_page(), make_cache()
    assert cache.insert(page, tid(1), payload(1))
    assert cache.probe(page, tid(1)) == payload(1)
    assert cache.probe(page, tid(2)) is None
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_probe_ignores_payload_byte_collisions():
    """A tuple id appearing inside another item's payload must not match."""
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    fake_tid = tid(0x0B0B0B0B0B0B0B0B)
    cache.write_slot(page, geo, 1, tid(1), fake_tid[:8] + b"\x0b" * (PAYLOAD - 8))
    assert cache.probe(page, fake_tid) is None


def test_insert_fills_all_slots_then_evicts():
    page, cache = make_page(), make_cache()
    capacity = cache.capacity(page)
    assert capacity > 2
    for i in range(capacity):
        assert cache.insert(page, tid(i), payload(i))
    assert len(cache.entries(page)) == capacity
    assert cache.insert(page, tid(capacity), payload(capacity))
    assert cache.stats.evictions == 1
    assert len(cache.entries(page)) == capacity


def test_insert_no_room_returns_false():
    page = make_page(page_size=256)
    # fill the page with index records until no slot fits
    while True:
        try:
            page.insert_at(page.slot_count, b"k" * 40)
        except Exception:
            break
    cache = IndexCache(60, 44, rng=DeterministicRng(0))
    assert cache.capacity(page) == 0
    assert not cache.insert(page, tid(1), bytes(60))
    assert cache.stats.skipped_no_room == 1


def test_zero_window_drops_everything():
    page, cache = make_page(), make_cache()
    for i in range(5):
        cache.insert(page, tid(i), payload(i))
    cache.zero_window(page)
    assert cache.entries(page) == []


def test_invalidate_tuple():
    page, cache = make_page(), make_cache()
    cache.insert(page, tid(1), payload(1))
    cache.insert(page, tid(2), payload(2))
    assert cache.invalidate_tuple(page, tid(1))
    assert not cache.invalidate_tuple(page, tid(1))
    assert cache.probe(page, tid(1)) is None
    assert cache.probe(page, tid(2)) == payload(2)


def test_cache_survives_interleaved_index_growth():
    """End-to-end clobber semantics: key inserts shrink the window and the
    cache keeps functioning (returning fewer, still-valid items)."""
    page, cache = make_page(), make_cache()
    for i in range(cache.capacity(page)):
        cache.insert(page, tid(i), payload(i))
    before = len(cache.entries(page))
    for j in range(8):
        page.insert_at(page.slot_count, b"K" * ENTRY)
    after = cache.entries(page)
    assert 0 < len(after) <= before
    for _, t, p in after:
        n = int.from_bytes(t, "little")
        assert p == payload(n)  # every surviving item intact


def test_probe_promotes_toward_stable_point():
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    ranked = geo.slots_by_stability()
    outer = ranked[-1]
    cache.write_slot(page, geo, outer, tid(9), payload(9))
    for _ in range(50):
        assert cache.probe(page, tid(9)) == payload(9)
    found = cache.find(page, cache.geometry(page), tid(9))
    assert found is not None
    slot, _ = found
    # after many hits the item must sit in the innermost bucket
    buckets = geo.buckets(4)
    assert slot in buckets[0]
    assert cache.stats.promotions > 0


def test_occupancy_partition():
    page, cache = make_page(), make_cache()
    cache.insert(page, tid(1), payload(1))
    free, occupied = cache.occupancy(page)
    geo = cache.geometry(page)
    assert len(free) + len(occupied) == geo.num_slots
    assert len(occupied) == 1


def test_random_policy_cache_works():
    page = make_page()
    cache = IndexCache(PAYLOAD, ENTRY, policy=RandomPolicy(DeterministicRng(1)))
    for i in range(10):
        cache.insert(page, tid(i), payload(i))
    hits = sum(cache.probe(page, tid(i)) is not None for i in range(10))
    assert hits == 10


# -- the item checksum under clobbers -----------------------------------------

#: item sizes the clobber sweeps cover: a 1-byte payload up to a 54-byte one
ITEM_SIZES = range(11, 65)


def _stamped_item(item_size: int) -> tuple[IndexCache, SlottedPage, bytes]:
    """A cache of ``item_size`` items, a 32 KiB leaf, and one item's bytes
    as ``write_slot`` stamps them (a fixed, non-trivial body)."""
    cache = IndexCache(item_size - 10, ENTRY, rng=DeterministicRng(0))
    page = make_page(page_size=32768)
    body = bytes((i * 37 + item_size) % 256 for i in range(item_size - 2))
    assert crc_hqx(body, 0) not in (0, ZERO_CHECKSUM)  # not the remap's pair
    geo = cache.geometry(page)
    cache.write_slot(page, geo, 0, body[:8], body[8:])
    off = geo.slot_offset(0)
    return cache, page, bytes(page.buffer[off : off + item_size])


def _valid_after(cache, page, item: bytes, off: int, *columns: bytes) -> int:
    """Copies of ``item`` side by side in the window, copy ``j`` with byte
    ``off + k`` overwritten by ``columns[k][j]``: how many the fill's
    one-pass scan still takes for valid items."""
    size, copies = len(item), len(columns[0])
    window = bytearray(item * copies)
    for k, column in enumerate(columns):
        window[off + k :: size] = column
    geo = cache.geometry(page)
    assert geo.num_slots >= copies
    base = geo.slot_offset(0)
    page.buffer[base : base + len(window)] = window
    return len(cache.occupancy(page, geo)[1])


EVERY_BYTE = bytes(range(256))


def test_every_single_byte_clobber_is_detected():
    """Every offset of every item size 11..64 B, every value a clobber can
    leave there: only the copy that kept the original byte validates,
    through the fill's scan and through ``read_slot``."""
    for item_size in ITEM_SIZES:
        cache, page, item = _stamped_item(item_size)
        for off in range(item_size):
            assert _valid_after(cache, page, item, off, EVERY_BYTE) == 1
            if item[off]:  # slot 0 holds the copy that reads byte 0
                assert cache.read_slot(page, cache.geometry(page), 0) is None


def test_every_two_adjacent_byte_clobber_is_detected():
    """Two adjacent bytes, the checksum's own included: all 65 536 values
    at every offset of a 64 B item, and at every offset of every item size
    11..64 B the 256 that write one value twice.  Only the original pair
    validates.  The CRC is linear, so whether a burst is seen depends only
    on its pattern and its distance from the end of the slot; the 64 B item
    reaches every distance a smaller item has."""
    for item_size in ITEM_SIZES:
        cache, page, item = _stamped_item(item_size)
        for off in range(item_size - 1):
            kept = int(item[off] == item[off + 1])
            assert _valid_after(cache, page, item, off, EVERY_BYTE, EVERY_BYTE) == kept
    for off in range(64 - 1):
        for first in range(256):
            kept = int(first == item[off])
            column = bytes([first]) * 256
            assert _valid_after(cache, page, item, off, column, EVERY_BYTE) == kept


def test_checksum_is_never_zero():
    """Over 10-byte bodies whose last two bytes take every value, the CRC
    takes every 16-bit value once; the one that computes 0 is stored as
    ``ZERO_CHECKSUM``, so 0 never is — and that item still reads back."""
    prefix = tid(7)
    sums = [checksum(prefix + e.to_bytes(2, "big")) for e in range(1 << 16)]
    assert 0 not in sums
    assert set(sums) == set(range(1, 1 << 16))
    assert sums.count(ZERO_CHECKSUM) == 2
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    cache.write_slot(page, geo, 0, tid(0), bytes(PAYLOAD))  # CRC of zeros is 0
    assert cache.read_slot(page, geo, 0) == (tid(0), bytes(PAYLOAD))
    assert cache.entries(page) == [(0, tid(0), bytes(PAYLOAD))]


def _h31(body: bytes) -> int:
    """The item checksum cache bytes carried before the CRC-16 (stored
    little-endian), kept here as the oracle for an old window."""
    h = 1
    for byte in body:
        h = (h * 31 + byte) & 0xFFFF
    return h or 0x55AA


def test_window_stamped_by_the_old_checksum_reads_all_empty():
    """No migration: a leaf written by the ``h·31+b`` format is a cold
    cache, not garbage."""
    page, cache = make_page(), make_cache()
    geo = cache.geometry(page)
    size = cache.item_size
    for slot in range(geo.num_slots):
        body = tid(slot) + payload(slot)
        off = geo.slot_offset(slot)
        page.buffer[off : off + size] = body + _h31(body).to_bytes(2, "little")
    assert cache.entries(page) == []
    assert cache.occupancy(page) == (list(range(geo.num_slots)), [])
    assert cache.probe(page, tid(3)) is None
    for slot in range(geo.num_slots):  # the same items, stamped anew, are live
        cache.write_slot(page, geo, slot, tid(slot), payload(slot))
    assert len(cache.entries(page)) == geo.num_slots
