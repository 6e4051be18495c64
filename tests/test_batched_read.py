"""The batched read fast path, end to end.

Layer by layer: ``BufferPool.fetch_many`` (each distinct page pinned
once, page-ordered), ``HeapFile.fetch_many`` (RID batches), B+Tree
``lookup_many``/``range_batch`` (sorted probes sharing descents), and
``Table.lookup_many`` — including the acceptance claim that a Zipf batch
costs at least 2× fewer buffer-pool accesses than the per-key loop while
returning bit-identical results.
"""

from __future__ import annotations

import pytest

from repro.btree.tree import BPlusTree
from repro.errors import InvalidRidError
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, Rid
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution


def k8(i: int) -> bytes:
    return i.to_bytes(8, "big")


def v8(i: int) -> bytes:
    return i.to_bytes(8, "little")


# -- BufferPool.fetch_many ---------------------------------------------------


def test_fetch_many_pins_each_distinct_page_once(pool):
    pids = [pool.new_page(PageType.HEAP).page_id for _ in range(4)]
    for pid in pids:
        pool.unpin(pid, dirty=True)
    request = [pids[2], pids[0], pids[2], pids[0], pids[3]]
    pages = pool.fetch_many(request)
    assert sorted(pages) == sorted(set(request))
    # Each distinct page holds exactly ONE pin despite duplicates.
    assert sorted(pool.pinned_pages) == sorted(set(request))
    for pid in set(request):
        pool.unpin(pid)
    assert pool.pinned_pages == []


def test_fetch_many_counts_requests_and_distinct(pool):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    pool = BufferPool(SimulatedDisk(4096), 64, registry=registry)
    pids = [pool.new_page(PageType.HEAP).page_id for _ in range(3)]
    for pid in pids:
        pool.unpin(pid, dirty=True)
    pool.fetch_many([pids[0], pids[0], pids[1]])
    snap = registry.snapshot()["bufferpool"]["batch"]
    assert snap["requests"] == 3
    assert snap["distinct"] == 2
    pool.unpin(pids[0])
    pool.unpin(pids[1])


def test_fetch_many_failure_unwinds_all_pins(pool):
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid, dirty=True)
    with pytest.raises(Exception):
        pool.fetch_many([pid, 999_999])  # second page does not exist
    assert pool.pinned_pages == []


def test_pages_many_context_manager_unpins(pool):
    pids = [pool.new_page(PageType.HEAP).page_id for _ in range(3)]
    for pid in pids:
        pool.unpin(pid, dirty=True)
    with pool.pages_many(pids) as pages:
        assert sorted(pool.pinned_pages) == sorted(pids)
        assert all(pages[pid].page_id == pid for pid in pids)
    assert pool.pinned_pages == []


# -- HeapFile.fetch_many -----------------------------------------------------


def test_heap_fetch_many_matches_scalar(heap, rng):
    rids = [heap.insert(f"record-{i}".encode().ljust(64, b".")) for i in range(200)]
    sample = [rids[i] for i in (5, 17, 5, 199, 0, 42)]
    batched = heap.fetch_many(sample)
    for rid in sample:
        assert batched[rid] == heap.fetch(rid)
    assert heap.pool.pinned_pages == []


def test_heap_fetch_many_rejects_foreign_rid(heap):
    heap.insert(b"x" * 16)
    with pytest.raises(InvalidRidError):
        heap.fetch_many([Rid(999_999, 0)])


# -- BPlusTree.lookup_many / range_batch -------------------------------------


@pytest.fixture
def tree(pool):
    t = BPlusTree(pool, key_size=8, value_size=8)
    keys = list(range(0, 3_000, 3))  # multiples of 3 present
    DeterministicRng(5).shuffle(keys)
    for i in keys:
        t.insert(k8(i), v8(i))
    return t


def test_lookup_many_matches_scalar_search(tree):
    probes = [k8(i) for i in range(0, 200)] + [k8(2997), k8(999_999)]
    got = tree.lookup_many(probes)
    for key in probes:
        assert got[key] == tree.search(key)
    assert tree.pool.pinned_pages == []


def test_lookup_many_duplicates_and_empty(tree):
    assert tree.lookup_many([]) == {}
    got = tree.lookup_many([k8(9), k8(9), k8(9)])
    assert got == {k8(9): v8(9)}


def test_lookup_many_shares_descents(tree):
    registry = tree.registry
    descents_before = registry.counter("btree.batch.probes").value
    tree.lookup_many([k8(i) for i in range(0, 300, 3)])
    probes = registry.counter("btree.batch.probes").value - descents_before
    # 100 sorted adjacent keys must collapse into far fewer descents.
    assert probes < 50


def test_range_batch_matches_scalar_scans(tree):
    ranges = [
        (k8(30), k8(90)),
        (k8(0), k8(10)),
        (None, k8(21)),
        (k8(2900), None),
        (k8(500), k8(500)),   # empty
        (k8(30), k8(90)),     # duplicate range
    ]
    batched = tree.range_batch(ranges)
    for (lo, hi), got in zip(ranges, batched):
        assert got == list(tree.range_scan(lo, hi))
    assert tree.pool.pinned_pages == []


# -- Table.lookup_many: the acceptance claim ---------------------------------


SCHEMA = Schema.of(
    ("rev_id", UINT64), ("rev_page", UINT64), ("rev_len", UINT32),
    ("pad", char(48)),
)
N_ROWS = 3_000


def _build_table(cached: bool):
    db = Database(data_pool_pages=32, seed=0)
    table = db.create_table("t", SCHEMA)
    if cached:
        db.create_cached_index("t", "pk", ("rev_id",), ("rev_page", "rev_len"))
    else:
        db.create_index("t", "pk", ("rev_id",))
    for i in range(N_ROWS):
        table.insert({"rev_id": i, "rev_page": i % 91, "rev_len": i * 7,
                      "pad": f"p{i}"})
    return db, table


def _zipf_batches(n_batches=12, batch_size=64):
    rng = DeterministicRng(11)
    zipf = ZipfianDistribution(N_ROWS, 1.0, rng)
    return [
        [zipf.sample() % N_ROWS for _ in range(batch_size)]
        for _ in range(n_batches)
    ]


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
def test_lookup_many_zipf_batches_halve_pool_fetches(cached):
    """Acceptance: ≥2× fewer BufferPool fetches, identical results."""
    batches = _zipf_batches()
    project = ("rev_id", "rev_page", "rev_len")

    db_s, table_s = _build_table(cached)
    pool_s = table_s.heap.pool
    start = pool_s.hits + pool_s.misses
    scalar = [
        [table_s.lookup("pk", key, project).values for key in batch]
        for batch in batches
    ]
    scalar_fetches = pool_s.hits + pool_s.misses - start

    db_b, table_b = _build_table(cached)
    pool_b = table_b.heap.pool
    start = pool_b.hits + pool_b.misses
    batched = [
        [r.values for r in table_b.lookup_many("pk", batch, project)]
        for batch in batches
    ]
    batched_fetches = pool_b.hits + pool_b.misses - start

    assert scalar == batched
    assert batched_fetches * 2 <= scalar_fetches, (
        f"batched={batched_fetches} scalar={scalar_fetches}"
    )
    assert pool_s.pinned_pages == []
    assert pool_b.pinned_pages == []


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
def test_lookup_many_handles_missing_and_duplicate_keys(cached):
    db, table = _build_table(cached)
    keys = [5, N_ROWS + 100, 5, 0, N_ROWS - 1, N_ROWS + 100]
    results = table.lookup_many("pk", keys)
    for key, result in zip(keys, results):
        scalar = table.lookup("pk", key)
        assert result.found == scalar.found
        assert result.values == scalar.values
    assert table.heap.pool.pinned_pages == []


def test_lookup_many_empty_batch():
    db, table = _build_table(False)
    assert table.lookup_many("pk", []) == []
