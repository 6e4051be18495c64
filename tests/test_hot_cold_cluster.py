"""Clustering operator (§3.1): delete+append relocation."""

import pytest

from repro.btree.keycodec import UIntKey
from repro.btree.tree import BPlusTree
from repro.core.hot_cold.cluster import cluster_hot_tuples
from repro.core.hot_cold.forwarding import ForwardingTable
from repro.errors import ReproError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, Rid
from repro.util.rng import DeterministicRng

KC = UIntKey(8)


def build_table(n=200, record_size=40, append_only=True):
    pool = BufferPool(SimulatedDisk(512), 1 << 20)
    heap = HeapFile(pool, append_only=append_only)
    tree = BPlusTree(pool, key_size=8, value_size=8)
    for i in range(n):
        record = i.to_bytes(4, "little") + bytes(record_size - 4)
        rid = heap.insert(record)
        tree.insert(KC.encode(i), rid.to_bytes())
    return heap, tree


def hot_keys(step=10, n=200):
    return [KC.encode(i) for i in range(0, n, step)]


def test_requires_append_only_heap():
    heap, tree = build_table(append_only=False)
    with pytest.raises(ReproError):
        cluster_hot_tuples(heap, tree, hot_keys())


def test_full_clustering_moves_all_hot_tuples():
    heap, tree = build_table()
    keys = hot_keys()
    tail_before = heap.page_ids[-1]
    report = cluster_hot_tuples(heap, tree, keys)
    assert report.moved == len(keys)
    assert report.moved == report.hot_tuples > 0  # achieved fraction 1
    # every hot tuple now lives at or past the old tail page
    for key in keys:
        rid = Rid.from_bytes(tree.search(key))
        assert rid.page_id >= tail_before


def test_clustering_preserves_data():
    heap, tree = build_table()
    keys = hot_keys()
    cluster_hot_tuples(heap, tree, keys)
    for key in keys:
        i = KC.decode(key)
        rid = Rid.from_bytes(tree.search(key))
        assert heap.fetch(rid)[:4] == i.to_bytes(4, "little")
    assert tree.num_entries == 200
    assert heap.num_records == 200


def test_hot_tuples_end_up_dense():
    """After clustering, hot tuples occupy few pages (the point of §3.1)."""
    heap, tree = build_table(n=400, record_size=40)
    keys = hot_keys(step=20, n=400)  # 20 hot tuples, ~1 per page before
    pages_before = {
        Rid.from_bytes(tree.search(k)).page_id for k in keys
    }
    cluster_hot_tuples(heap, tree, keys)
    pages_after = {
        Rid.from_bytes(tree.search(k)).page_id for k in keys
    }
    assert len(pages_after) < len(pages_before)
    assert len(pages_after) <= 3


def test_fractional_clustering():
    heap, tree = build_table()
    keys = hot_keys()
    report = cluster_hot_tuples(
        heap, tree, keys, fraction=0.5, rng=DeterministicRng(1)
    )
    assert report.moved == len(keys) // 2


def test_fraction_requires_rng():
    heap, tree = build_table()
    with pytest.raises(ReproError):
        cluster_hot_tuples(heap, tree, hot_keys(), fraction=0.5)
    with pytest.raises(ReproError):
        cluster_hot_tuples(heap, tree, hot_keys(), fraction=1.5,
                           rng=DeterministicRng(0))


def test_missing_keys_are_skipped():
    heap, tree = build_table()
    keys = hot_keys() + [KC.encode(99999)]
    report = cluster_hot_tuples(heap, tree, keys)
    assert report.skipped_missing == 1
    assert report.moved == len(keys) - 1


def test_forwarding_entries_recorded():
    heap, tree = build_table()
    keys = hot_keys()
    fwd = ForwardingTable()
    old_rids = {k: Rid.from_bytes(tree.search(k)) for k in keys}
    cluster_hot_tuples(heap, tree, keys, forwarding=fwd)
    for key in keys:
        new_rid = Rid.from_bytes(tree.search(key))
        assert fwd.resolve(old_rids[key]) == new_rid
