"""A page view's decoded node keys never answer differently from the bytes.

``SlottedPage.bisect`` switches, after ``DECODE_AFTER`` byte searches, to
a C ``bisect`` over the key prefixes the view keeps (a pool frame keeps
one view).  Three checks hold that list, and the page-type byte the view
also keeps, to the bytes:

* a hypothesis run of random writes to one frame-backed node page —
  ordered-directory writes, heap-mode writes that leave tombstones and
  unsorted directories, records shorter than the key, compaction, cache
  writes into the free window and a write bracket that raises — after
  every step of which the list equals a fresh decode of the bytes, the
  type code equals the type byte, and every search equals the byte
  search over a fresh view of the buffer;
* ``drop_clean`` leaves no frame holding a list;
* the fault drill and the WAL drill at their CLI seeds, with every
  search the list serves checked against the byte search and the list
  against a fresh decode, still print their pinned lines.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.tree import BPlusTree
from repro.errors import InvalidRidError, PageFullError
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE, PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.page import DECODE_AFTER, SlottedPage

WIDTH = 4  # key prefix width searched on the fuzzed page
_ENTRY = struct.Struct("<HH")


def fresh_decode(page: SlottedPage, width: int) -> list[bytes]:
    """Every directory entry's leading ``width`` bytes, read off the page."""
    buf = page.buffer
    return [
        bytes(buf[offset : offset + width])
        for offset, _ in (
            _ENTRY.unpack_from(buf, PAGE_HEADER_SIZE + i * SLOT_ENTRY_SIZE)
            for i in range(page.slot_count)
        )
    ]


def outcome(search, *args):
    """A search's answer, or the error it raised, as one comparable value."""
    try:
        return search(*args)
    except InvalidRidError as exc:
        return ("InvalidRidError", str(exc))


def byte_search(page: SlottedPage, key: bytes, lo: int, upper: bool):
    """The search over the bare bytes: a fresh view, no keys decoded."""
    return outcome(SlottedPage(page.buffer).bisect, key, lo, upper)


key_record = st.binary(min_size=WIDTH, max_size=12)
record = st.one_of(key_record, st.binary(min_size=1, max_size=WIDTH - 1))
where = st.integers(0, 40)
ordered = (  # the writes a B+Tree node takes, weighted to build long lists
    st.tuples(st.just("insert_at"), where, key_record),
    st.tuples(st.just("insert_at"), where, key_record),
    st.tuples(st.just("insert_at"), where, key_record),
    st.tuples(st.just("remove_at"), where, st.just(b"")),
    st.tuples(st.just("update"), where, st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("update"), where, st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("truncate"), where, st.just(b"")),
    st.tuples(st.just("compact"), st.just(0), st.just(b"")),
    st.tuples(st.just("window_write"), where, st.binary(min_size=1, max_size=8)),
)
others = (  # writes that drop the list
    st.tuples(st.just("insert_at"), where, record),
    st.tuples(st.just("insert"), st.just(0), record),
    st.tuples(st.just("delete"), where, st.just(b"")),
    st.tuples(st.just("place_at"), where, record),
    st.tuples(st.just("reserve_tombstones"), where, st.just(b"")),
    st.tuples(st.just("raising_bracket"), where, record),
)
operation = st.one_of(*ordered, *ordered, *others)
probe = st.tuples(st.binary(min_size=WIDTH, max_size=WIDTH), st.integers(0, 3), st.booleans())


def apply(pool: BufferPool, page: SlottedPage, op: str, at: int, data: bytes):
    at %= page.slot_count + 2  # mostly a valid position, sometimes one past
    if op == "update":
        old = page.read(at)
        page.update(at, bytes([data[0] ^ b for b in old]))
    elif op == "compact":
        page.compact()
    elif op == "insert":
        page.insert(data)
    elif op == "window_write":  # the index cache's kind of write
        lo, hi = page.free_window()
        if hi - lo >= len(data):
            start = lo + at % (hi - lo - len(data) + 1)
            page.buffer[start : start + len(data)] = data
    elif op == "raising_bracket":
        with pytest.raises(RuntimeError):
            with pool.page(page.page_id, dirty=True) as view:
                view.insert_at(min(at, view.slot_count), data)
                raise RuntimeError("torn")
    elif op in ("remove_at", "delete", "truncate", "reserve_tombstones"):
        getattr(page, op)(at)
    else:  # insert_at, place_at
        getattr(page, op)(at, data)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(operation, max_size=60),
    probes=st.lists(probe, min_size=1, max_size=6),
)
def test_frame_keys_equal_the_bytes_after_every_write(ops, probes):
    pool = BufferPool(SimulatedDisk(384), 4)
    page = pool.new_page(PageType.BTREE_LEAF)
    for op, at, data in ops:
        try:
            apply(pool, page, op, at, data)
        except (InvalidRidError, PageFullError):
            pass
        if page.keys is not None:
            assert page.keys == fresh_decode(page, page.key_width)
        assert page.type_code == page.buffer[6]
        page.searches = DECODE_AFTER  # every search may decode
        for key, lo, upper in probes + [(k, 0, False) for k in page.keys or ()]:
            assert outcome(page.bisect, key, lo, upper) == \
                byte_search(page, key, lo, upper)
        if page.keys is not None:
            assert page.keys == fresh_decode(page, WIDTH)


def test_a_refused_decode_waits_out_another_round_of_byte_searches():
    """A tombstone keeps the page on the byte search, and the refusal
    costs one decode per ``DECODE_AFTER`` searches, not one per search."""
    pool = BufferPool(SimulatedDisk(384), 4)
    page = pool.new_page(PageType.BTREE_LEAF)
    for i in range(6):
        page.insert_at(i, bytes([i]) * 8)
    page.delete(2)
    page.searches = DECODE_AFTER
    assert outcome(page.bisect, bytes([0]) * 4) == (0, True)
    assert page.keys is None and page.searches == 1


def test_drop_clean_leaves_no_frame_holding_keys():
    pool = BufferPool(SimulatedDisk(512), 16)
    tree = BPlusTree(pool, key_size=8, value_size=8)
    keys = [n.to_bytes(8, "big") for n in range(400)]
    for key in keys:
        tree.insert(key, key)
    for _ in range(DECODE_AFTER + 1):
        for key in keys[::9]:
            assert tree.search(key) == key
    assert any(frame.view.keys is not None for frame in pool._frames.values())
    pool.drop_clean()
    assert not any(frame.view.keys is not None for frame in pool._frames.values())
    assert tree.search(keys[17]) == keys[17]


@pytest.fixture
def cross_checked(monkeypatch):
    """Check every list-served search against the byte search, and the
    list against a fresh decode; yields the count of checked searches."""
    real_bisect = SlottedPage.bisect
    checked = [0]

    def bisect(self, key, lo=0, upper=False):
        found = outcome(real_bisect, self, key, lo, upper)
        if self.keys is not None and self.key_width == len(key):
            assert found == byte_search(self, key, lo, upper), (self.page_id, key)
            assert self.keys == fresh_decode(self, len(key)), self.page_id
            checked[0] += 1
        if isinstance(found, tuple) and found[:1] == ("InvalidRidError",):
            raise InvalidRidError(found[1])
        return found

    monkeypatch.setattr(SlottedPage, "bisect", bisect)
    return checked


def test_fault_drill_under_the_cross_check(cross_checked, capsys):
    from repro.faults.__main__ import main

    assert main([]) == 0
    out = capsys.readouterr().out
    assert "digest=b34e119944d8b374" in out, out
    assert cross_checked[0] > 10_000


def test_wal_drill_under_the_cross_check(cross_checked, capsys):
    from repro.wal.__main__ import main

    assert main([]) == 0
    out = capsys.readouterr().out
    assert out.startswith("wal drill [PASS] seed=0: 2000 ops, 4 crash(es)"), out
    assert cross_checked[0] > 1_000
