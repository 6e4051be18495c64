"""Every B+Tree node search across one scripted tree life, pinned.

``SlottedPage.bisect`` is the one search both node views use.  A stale
answer from a search structure kept beside the page bytes would route a
key to the wrong child or the wrong slot, so the whole sequence of
``(page, key, lo, upper) -> (position, exact)`` is hashed into one
literal, over a life that walks every path that rewrites a node: a bulk
load, inserts through leaf and internal splits, deletes, a compaction
inside ``_try_insert_leaf``, an upsert's ``set_value``, a dirty bracket
that raises and restores its snapshot, and eviction and re-read through
a four-frame pool.
"""

import hashlib

import pytest

from repro.btree.tree import BPlusTree
from repro.btree.node import LeafNode
from repro.obs.registry import MetricsRegistry
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage

LIFE_DIGEST = (
    "ed25b393b5addc1f89e7d48ade066ac4a6887a336ca33da2555a04ffdcaf4c9c"
)
GAP = 64  # room for new keys between the loaded ones
N = 300  # loaded keys: splits grow the root past one internal node
#: Entries (record + directory entry) that fill a 512-byte leaf.
LEAF_CAPACITY = (512 - PAGE_HEADER_SIZE - PAGE_FOOTER_SIZE) // (8 + 8 + 4)


def key(n: int) -> bytes:
    return n.to_bytes(8, "big")


def value(n: int) -> bytes:
    return (n * 7919 % 2**64).to_bytes(8, "little")


def search_all(tree: BPlusTree, keys, expect: dict) -> None:
    """Look every key up twice (so hot nodes see repeated searches)."""
    for _ in range(2):
        for n in keys:
            assert tree.search(key(n)) == expect.get(n)


def scripted_life(monkeypatch) -> tuple[list, dict]:
    """Run the life; returns the search log and what each phase did."""
    log: list = []
    real_bisect = SlottedPage.bisect

    def recording(self, k, lo=0, upper=False):
        found = real_bisect(self, k, lo, upper)
        log.append((self.page_id, k.hex(), lo, upper, found))
        return found

    monkeypatch.setattr(SlottedPage, "bisect", recording)
    real_compact = SlottedPage.compact
    compactions: list[str] = []

    def counting(self):
        compactions.append(phase)
        real_compact(self)

    monkeypatch.setattr(SlottedPage, "compact", counting)

    pool = BufferPool(SimulatedDisk(512), 4)
    expect = {n: value(n) for n in range(0, N * GAP, GAP)}
    tree = BPlusTree.bulk_load(
        pool, [(key(n), expect[n]) for n in sorted(expect)], 8, 8,
        registry=MetricsRegistry(),
    )
    did = {"height_after_load": tree.height}
    phase = "load"
    search_all(tree, range(0, N * GAP, GAP // 2), expect)

    phase = "split"
    for n in range(GAP // 2, N * GAP, GAP):
        tree.insert(key(n), value(n))
        expect[n] = value(n)
    did["leaf_splits"] = tree._m_split_leaf.value
    did["internal_splits"] = tree._m_split_internal.value
    search_all(tree, sorted(expect)[::3], expect)

    phase = "delete"
    for n in sorted(expect)[::3]:
        tree.delete(key(n))
        del expect[n]
    search_all(tree, range(0, N * GAP, GAP // 4), expect)

    phase = "refill"  # orphaned bytes make the leaf compact, not split
    splits = tree._m_split_leaf.value
    with pool.page(tree.find_leaf(key(N // 2 * GAP))) as page:
        leaf = LeafNode(page, 8, 8)
        live = [int.from_bytes(leaf.key_at(i), "big") for i in range(leaf.count)]
    fresh = [n + j for j in range(1, 4) for n in live][: LEAF_CAPACITY - len(live)]
    for n in fresh:
        tree.insert(key(n), value(n + 1))
        expect[n] = value(n + 1)
    did["refill_splits"] = tree._m_split_leaf.value - splits
    search_all(tree, sorted(fresh), expect)

    phase = "upsert"
    for n in sorted(expect)[::10]:
        tree.insert(key(n), value(n + 2), upsert=True)
        expect[n] = value(n + 2)
    search_all(tree, sorted(expect)[::10], expect)

    phase = "restore"
    leaf_id = tree.find_leaf(key(live[0]))
    with pytest.raises(RuntimeError):
        with pool.page(leaf_id, dirty=True) as page:
            leaf = LeafNode(page, 8, 8)
            leaf.remove(leaf.find(key(live[0]))[0])
            leaf.insert(0, key(1), value(0))
            raise RuntimeError("torn write")
    search_all(tree, [1] + live + fresh, expect)

    phase = "reread"
    pool.drop_clean()
    search_all(tree, range(0, N * GAP, GAP // 4), expect)
    tree.verify_order()
    did["compactions"] = sorted(set(compactions))
    did["evictions"] = pool.evictions
    return log, did


def test_the_scripted_life_walks_every_node_rewrite(monkeypatch):
    log, did = scripted_life(monkeypatch)
    assert did["height_after_load"] == 2
    assert did["leaf_splits"] > 0 and did["internal_splits"] > 0
    assert did["refill_splits"] == 0
    assert "refill" in did["compactions"]
    assert did["evictions"] > 100
    assert len(log) > 5_000


def test_every_node_search_of_the_life_is_pinned(monkeypatch):
    log, _ = scripted_life(monkeypatch)
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == LIFE_DIGEST
