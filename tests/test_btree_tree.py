"""BPlusTree: search/insert/delete/range across splits, multi-level."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError, IndexError_, KeyNotFoundError
from repro.btree.keycodec import UIntKey
from repro.btree.tree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.util.rng import DeterministicRng

KC = UIntKey(8)


def make_tree(page_size=512, split_fraction=0.5):
    pool = BufferPool(SimulatedDisk(page_size), 1 << 20)
    return BPlusTree(pool, key_size=8, value_size=8,
                     split_fraction=split_fraction)


def enc(k: int) -> bytes:
    return KC.encode(k)


def val(k: int) -> bytes:
    return k.to_bytes(8, "little")


def test_empty_tree():
    tree = make_tree()
    assert tree.num_entries == 0
    assert tree.height == 1
    assert tree.search(enc(1)) is None
    assert list(tree.items()) == []


def test_insert_search_small():
    tree = make_tree()
    for k in (5, 1, 9):
        tree.insert(enc(k), val(k))
    assert tree.search(enc(5)) == val(5)
    assert tree.search(enc(2)) is None
    assert [KC.decode(k) for k, _ in tree.items()] == [1, 5, 9]


def test_duplicate_rejected_unless_upsert():
    tree = make_tree()
    tree.insert(enc(1), val(1))
    with pytest.raises(DuplicateKeyError):
        tree.insert(enc(1), val(2))
    tree.insert(enc(1), val(3), upsert=True)
    assert tree.search(enc(1)) == val(3)


def test_key_value_size_validation():
    tree = make_tree()
    with pytest.raises(IndexError_):
        tree.insert(b"\x00" * 7, val(1))
    with pytest.raises(IndexError_):
        tree.insert(enc(1), b"\x00" * 9)
    with pytest.raises(IndexError_):
        tree.search(b"short")


def test_split_produces_multilevel_tree():
    tree = make_tree(page_size=512)
    n = 500
    keys = list(range(n))
    DeterministicRng(1).shuffle(keys)
    for k in keys:
        tree.insert(enc(k), val(k))
    assert tree.height >= 2
    assert tree.num_entries == n
    for k in (0, 1, n // 2, n - 1):
        assert tree.search(enc(k)) == val(k)
    tree.verify_order()


def test_sequential_inserts():
    tree = make_tree(page_size=512)
    for k in range(400):
        tree.insert(enc(k), val(k))
    assert [KC.decode(k) for k, _ in tree.items()] == list(range(400))
    tree.verify_order()


def test_reverse_sequential_inserts():
    tree = make_tree(page_size=512)
    for k in reversed(range(400)):
        tree.insert(enc(k), val(k))
    assert [KC.decode(k) for k, _ in tree.items()] == list(range(400))


def test_delete_and_refill():
    tree = make_tree()
    for k in range(300):
        tree.insert(enc(k), val(k))
    for k in range(0, 300, 2):
        tree.delete(enc(k))
    assert tree.num_entries == 150
    assert tree.search(enc(2)) is None
    assert tree.search(enc(3)) == val(3)
    # deleted keys can be reinserted
    for k in range(0, 300, 2):
        tree.insert(enc(k), val(k + 1000))
    assert tree.search(enc(2)) == val(1002)
    tree.verify_order()


def test_delete_missing_raises():
    tree = make_tree()
    tree.insert(enc(1), val(1))
    with pytest.raises(KeyNotFoundError):
        tree.delete(enc(2))


def test_update_value():
    tree = make_tree()
    tree.insert(enc(1), val(1))
    tree.update_value(enc(1), val(99))
    assert tree.search(enc(1)) == val(99)
    with pytest.raises(KeyNotFoundError):
        tree.update_value(enc(2), val(0))


def test_range_scan_bounds():
    tree = make_tree(page_size=512)
    for k in range(0, 1000, 3):
        tree.insert(enc(k), val(k))
    got = [KC.decode(k) for k, _ in tree.range_scan(enc(100), enc(200))]
    assert got == [k for k in range(0, 1000, 3) if 100 <= k < 200]
    # unbounded scans
    assert len(list(tree.range_scan())) == tree.num_entries
    assert [KC.decode(k) for k, _ in tree.range_scan(lo=enc(990))] == [
        k for k in range(0, 1000, 3) if k >= 990
    ]
    assert [KC.decode(k) for k, _ in tree.range_scan(hi=enc(10))] == [0, 3, 6, 9]


def test_range_scan_empty_range():
    tree = make_tree()
    tree.insert(enc(5), val(5))
    assert list(tree.range_scan(enc(6), enc(10))) == []


def test_contains():
    tree = make_tree()
    tree.insert(enc(3), val(3))
    assert tree.search(enc(3)) is not None
    assert tree.search(enc(4)) is None


def test_leaf_chaining_covers_all_leaves():
    tree = make_tree(page_size=512)
    for k in range(600):
        tree.insert(enc(k), val(k))
    # walk the chain from the leftmost leaf
    seen = 0
    page_id = tree._leftmost_leaf()
    visited = set()
    while page_id is not None:
        assert page_id not in visited  # no cycles
        visited.add(page_id)
        with tree.pool.page(page_id) as page:
            seen += page.slot_count
            page_id = page.next_page
    assert seen == 600
    assert visited == set(tree.leaf_page_ids)


def test_stats_accounting():
    tree = make_tree(page_size=512)
    for k in range(300):
        tree.insert(enc(k), val(k))
    assert tree.num_pages == len(tree.leaf_page_ids) + len(tree.internal_page_ids)
    assert tree.size_bytes == tree.num_pages * 512
    assert 0 < tree.leaf_fill_factor() <= 1.0


def test_split_fraction_validation():
    pool = BufferPool(SimulatedDisk(512), 16)
    with pytest.raises(IndexError_):
        BPlusTree(pool, 8, 8, split_fraction=0.05)
    with pytest.raises(IndexError_):
        BPlusTree(pool, 8, 8, split_fraction=0.95)
    with pytest.raises(IndexError_):
        BPlusTree(pool, 0, 8)


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "search"]),
              st.integers(min_value=0, max_value=150)),
    max_size=300,
))
def test_tree_matches_dict_model(ops):
    """Model-based test: the tree must agree with a plain dict."""
    tree = make_tree(page_size=256)
    model: dict[int, bytes] = {}
    for op, k in ops:
        if op == "insert":
            if k in model:
                with pytest.raises(DuplicateKeyError):
                    tree.insert(enc(k), val(k))
            else:
                tree.insert(enc(k), val(k))
                model[k] = val(k)
        elif op == "delete":
            if k in model:
                tree.delete(enc(k))
                del model[k]
            else:
                with pytest.raises(KeyNotFoundError):
                    tree.delete(enc(k))
        else:
            expected = model.get(k)
            assert tree.search(enc(k)) == expected
    assert tree.num_entries == len(model)
    assert [(KC.decode(k), v) for k, v in tree.items()] == sorted(model.items())
