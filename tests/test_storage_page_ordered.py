"""SlottedPage ordered-directory operations (the B+Tree node primitives)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidRidError, PageFullError
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage


def fresh_page(size: int = 512) -> SlottedPage:
    return SlottedPage.format(bytearray(size), 1, PageType.BTREE_LEAF)


def contents(page: SlottedPage) -> list[bytes]:
    return [page.read(i) for i in range(page.slot_count)]


def test_insert_at_keeps_positions():
    page = fresh_page()
    page.insert_at(0, b"bb")
    page.insert_at(0, b"aa")
    page.insert_at(2, b"dd")
    page.insert_at(2, b"cc")
    assert contents(page) == [b"aa", b"bb", b"cc", b"dd"]


def test_insert_at_bounds():
    page = fresh_page()
    with pytest.raises(InvalidRidError):
        page.insert_at(1, b"x")
    page.insert_at(0, b"x")
    with pytest.raises(InvalidRidError):
        page.insert_at(-1, b"y")
    with pytest.raises(InvalidRidError):
        page.insert_at(3, b"y")


def test_insert_at_full_raises_cleanly():
    page = fresh_page(128)
    with pytest.raises(PageFullError):
        for i in range(100):
            page.insert_at(i, b"z" * 10)
    page.verify()


def test_remove_at_shifts_down():
    page = fresh_page()
    for i, data in enumerate([b"a", b"b", b"c"]):
        page.insert_at(i, data)
    page.remove_at(1)
    assert contents(page) == [b"a", b"c"]
    page.remove_at(0)
    assert contents(page) == [b"c"]


def test_remove_at_bounds():
    page = fresh_page()
    with pytest.raises(InvalidRidError):
        page.remove_at(0)


def test_remove_orphans_record_bytes_until_compact():
    page = fresh_page()
    page.insert_at(0, b"x" * 40)
    page.insert_at(1, b"y" * 40)
    _, hi_before = page.free_window()
    page.remove_at(0)
    _, hi_after = page.free_window()
    assert hi_after == hi_before  # bytes orphaned, not reclaimed
    page.compact()
    _, hi_compacted = page.free_window()
    assert hi_compacted == hi_before + 40
    assert contents(page) == [b"y" * 40]


def test_truncate_drops_tail():
    page = fresh_page()
    for i in range(5):
        page.insert_at(i, bytes([65 + i]) * 3)
    page.truncate(2)
    assert contents(page) == [b"AAA", b"BBB"]
    with pytest.raises(InvalidRidError):
        page.truncate(3)


def test_truncate_to_zero():
    page = fresh_page()
    page.insert_at(0, b"x")
    page.truncate(0)
    assert page.slot_count == 0


@settings(max_examples=50)
@given(st.lists(st.tuples(st.booleans(), st.binary(min_size=1, max_size=8)), max_size=30))
def test_ordered_ops_match_list_model(ops):
    """insert_at/remove_at against a plain Python list reference model."""
    page = fresh_page(2048)
    model: list[bytes] = []
    for is_insert, data in ops:
        if is_insert or not model:
            pos = len(model) // 2
            try:
                page.insert_at(pos, data)
            except PageFullError:
                continue
            model.insert(pos, data)
        else:
            pos = len(model) // 2
            page.remove_at(pos)
            model.pop(pos)
    assert contents(page) == model
    page.verify()


def test_ordered_page_bytes_pinned():
    """Literals taken before the page accessors moved to compiled struct
    codecs: the bytes a fixed ordered-mode script leaves must not change."""
    import hashlib

    page = fresh_page()
    for i in range(12):
        page.insert_at(i // 2, bytes([97 + i]) * (4 + i))
    page.remove_at(0)
    page.remove_at(5)
    page.remove_at(page.slot_count - 1)
    page.insert_at(3, b"middle-entry")
    page.next_page = 4
    assert hashlib.sha256(page.buffer).hexdigest() == (
        "b5909741aaeb719232d0272f2427f370676edc5b9f4e7d19210032f64d891487"
    )
    page.truncate(6)
    assert hashlib.sha256(page.buffer).hexdigest() == (
        "c8098f046860536b0571af04253f3662fe527c8ea5457558843e8fe7cfa3e655"
    )
    page.compact()
    assert hashlib.sha256(page.buffer).hexdigest() == (
        "f20cbdb54bfc124f863e96a8f296575ef2e0f553fd21a44355fa13155eda3169"
    )
    assert contents(page) == [
        b"ddddddd", b"fffffffff", b"hhhhhhhhhhh", b"middle-entry",
        b"jjjjjjjjjjjjj", b"lllllllllllllll",
    ]
    page.verify()
