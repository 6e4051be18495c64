"""BTreeStats: the space accounting the paper's arguments rest on."""

import pytest

from repro.btree.keycodec import UIntKey
from repro.btree.stats import collect_stats
from repro.btree.tree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.util.rng import DeterministicRng

KC = UIntKey(8)


def leaf_pages(tree):
    """Each leaf page of ``tree``, read through its pool."""
    for page_id in tree.leaf_page_ids:
        with tree.pool.page(page_id) as page:
            yield page


def build(n, page_size=4096, shuffled=True):
    pool = BufferPool(SimulatedDisk(page_size), 1 << 20)
    tree = BPlusTree(pool, 8, 8)
    keys = list(range(n))
    if shuffled:
        DeterministicRng(0).shuffle(keys)
    for k in keys:
        tree.insert(KC.encode(k), k.to_bytes(8, "little"))
    return tree


def test_stats_counts_match_tree():
    tree = build(3000)
    stats = collect_stats(tree)
    assert stats.num_entries == 3000
    assert stats.leaf_pages == len(tree.leaf_page_ids)
    assert stats.leaf_pages + len(tree.internal_page_ids) == tree.num_pages
    assert stats.size_bytes == tree.size_bytes
    assert stats.height == tree.height


def test_fill_bounds():
    tree = build(3000)
    stats = collect_stats(tree)
    fills = [page.fill_factor for page in leaf_pages(tree)]
    assert 0 < min(fills) <= stats.leaf_fill_mean <= max(fills) <= 1


def test_random_inserts_near_textbook_fill():
    """The 68%-ish steady state the paper cites (Yao)."""
    stats = collect_stats(build(20000))
    assert 0.6 <= stats.leaf_fill_mean <= 0.8


def test_free_bytes_consistent_with_fill():
    tree = build(5000)
    stats = collect_stats(tree)
    usable_per_leaf = 4096 - 32 - 4
    total_usable = stats.leaf_pages * usable_per_leaf
    # free + live(entries + directory) should roughly cover usable space
    key_bytes = sum(page.live_record_bytes for page in leaf_pages(tree))
    live = key_bytes + stats.num_entries * 4
    assert stats.free_bytes_total + live == pytest.approx(total_usable, rel=0.01)


def test_cache_capacity_arithmetic():
    stats = collect_stats(build(5000))
    assert stats.cache_capacity(25) == stats.free_bytes_total // 25
    assert stats.cache_capacity(0) == 0
    assert stats.cache_capacity(-1) == 0


def test_sequential_fill_matches_split_fraction():
    """Pure ascending inserts leave leaves at the split fraction (~50%)."""
    stats = collect_stats(build(20000, shuffled=False))
    assert 0.4 <= stats.leaf_fill_mean <= 0.6
