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


# -- the shared directory search ----------------------------------------------


def _linear_lower_bound(keys: list[bytes], key: bytes) -> tuple[int, bool]:
    pos = next((i for i, k in enumerate(keys) if k >= key), len(keys))
    return pos, pos < len(keys) and keys[pos] == key


def _linear_upper_bound_from_one(keys: list[bytes], key: bytes) -> int:
    """First position >= 1 whose key is > ``key``: entry 0 is the internal
    node's -inf sentinel and never compared."""
    return next((i for i in range(1, len(keys)) if keys[i] > key), max(1, len(keys)))


_KEY = st.binary(min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(_KEY, unique=True, max_size=40), st.lists(_KEY, min_size=1, max_size=12))
def test_bisect_matches_linear_scan(keys, probes):
    keys.sort()
    page = fresh_page(1024)
    for i, key in enumerate(keys):
        page.insert_at(i, key + bytes([i]) * 5)  # key || value, like a leaf
    sentinel = [b"\x00" * 3] + keys[1:]  # what an internal node's entry 0 means
    for probe in probes + keys:
        assert page.bisect(probe) == _linear_lower_bound(keys, probe)
        pos, exact = page.bisect(probe, 1, upper=True)
        assert pos == _linear_upper_bound_from_one(sentinel, probe)
        assert exact is False


def test_bisect_on_empty_and_single_entry_nodes():
    page = fresh_page()
    assert page.bisect(b"kk") == (0, False)
    assert page.bisect(b"kk", 1, upper=True) == (1, False)  # no child to route to
    page.insert_at(0, b"kk-value")
    assert page.bisect(b"kk") == (0, True)
    assert page.bisect(b"aa") == (0, False)
    assert page.bisect(b"zz") == (1, False)
    for probe in (b"aa", b"kk", b"zz"):  # entry 0 routes everything
        assert page.bisect(probe, 1, upper=True) == (1, False)


def test_node_views_route_through_the_page_search():
    from repro.btree.node import InternalNode, LeafNode

    leaf = LeafNode(fresh_page(), 2, 3)
    for i, key in enumerate([b"bb", b"dd", b"ff"]):
        leaf.insert(i, key, b"v%02d" % i)
    assert [leaf.find(k) for k in (b"aa", b"bb", b"cc", b"ff", b"zz")] == [
        (0, False), (0, True), (1, False), (2, True), (3, False),
    ]
    page = SlottedPage.format(bytearray(512), 2, PageType.BTREE_INTERNAL)
    node = InternalNode(page, 2)
    for i, (key, child) in enumerate([(b"\x00\x00", 10), (b"dd", 20), (b"mm", 30)]):
        node.insert(i, key, child)
    assert [node.find_child(k) for k in (b"aa", b"dd", b"de", b"mm", b"zz")] == [
        (0, 10), (1, 20), (1, 20), (2, 30), (2, 30),
    ]


def test_search_errors_are_rid_errors_not_codec_errors():
    """A directory entry the search cannot use — tombstoned, or past the
    end of the page because ``slot_count`` is corrupt — has always read
    as deleted; ``struct.error`` must never reach a caller."""
    import struct

    page = fresh_page()
    for i, key in enumerate([b"aa", b"bb", b"cc"]):
        page.insert_at(i, key)
    page.delete(1)
    with pytest.raises(InvalidRidError) as caught:
        page.bisect(b"bb")
    assert not isinstance(caught.value, struct.error)
    page = fresh_page()
    page.insert_at(0, b"aa")
    page.buffer[8:10] = b"\xff\xff"  # slot_count = 65535 on a 512-byte page
    with pytest.raises(InvalidRidError):
        page.bisect(b"zz")
    with pytest.raises(InvalidRidError):
        page.read(60000)
    assert not page.slot_is_live(60000)
    # the walk finishes: entries past the page end read as tombstones
    assert max(page.live_slots()) < (512 - 32) // 4
