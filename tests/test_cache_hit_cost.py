"""A cache hit's work does not grow with the window, and whole ops keep
to a call budget.

Counted, not timed: under ``sys.setprofile`` every Python call and every
built-in call made by one ``IndexCache.probe`` hit, on leaves whose windows
hold about 10, 70 and 300 slots.  The counts must be *equal* across the
three and stay under a literal.  (When the ranking was a sort over the
window, a hit made one ``lambda`` and one ``abs`` call per slot.)  A fill
— an ``insert`` into a full window — classifies every slot, so its count
is ``a + b·slots``; ``b`` is the one ``crc_hqx`` that verifies each
occupied slot.

The same count, with no slack, for whole ops on the plain path: a
``Table.lookup`` through a plain index, and a one-column ``Table.update``
and a ``Table.insert`` under WAL, over ``point_fit``'s revision table at
a tenth of its size.  A written row is checked by one exact-type compare
in the record codec; with ``PhysicalType.validate`` called per column
(8 ``validate``, 7 ``int_range`` and 15 ``isinstance`` for a revision row)
the update read 207 and the insert 218.  Its redo record's fields are
three compiled ``Struct`` packs; as seven ``int.to_bytes`` they cost
each write three calls more.
A read ``with pool.page(...)`` bracket on a resident page is seven calls:
``page``, the pin body with its frame lookup, cost hook and LRU move, and
the frame's own ``__enter__`` and ``__exit__`` (the frame is the handle
and keeps the page's one view).  With a new view and a handle per pin and
``unpin`` at exit it was twelve; as a ``@contextmanager`` generator it was
nine on top of ``fetch`` and ``unpin``, and the three op budgets read
169 / 281 / 149 (the lookup answered from the leaf runs on a one-leaf
tree: two brackets).

And "a hit is cheaper than the heap": on one table with a cached and a
plain index over the same key columns, both trees of height 2, a
``Table.lookup`` answered from the leaf makes fewer calls than a plain
``Table.lookup`` of the same key with the same projection.

A columnar scan and aggregate right after a one-row update, on a mirror
of eight 512-row segments: only the written segment runs its kernel and
builds its rows again, with no Python call per row, so the count does
not grow with the table.  When every segment re-ran and a dict
comprehension built each selected row, the pair read 2 323 calls; when
each query compiled its predicate and rebuilt its memo key, 183.

A row-executor scan of two fixed-width columns, per row: the scan's and
the heap's generator resumes, the page walk's resume, one
directory-entry unpack, one record unpack and the predicate, plus each
page's bracket and the scan's planning spread over the rows.  When each
row went through the slot-liveness, bounds-check and read chain and was
decoded in full (CHAR un-padding included) into a dict that a second
dict then projected, it read 22.20; with a ``Rid`` built per row that
nobody read, 7.19.

The facade hop: a routed ``ShardedTable.lookup`` or ``update`` against
the same call on the owning shard's ``Table``.  The difference is the op,
its keyed dispatch, one router call (the key's stable hash and the zipf
tracker's count) and the bracket with its fan-out histogram.  When the
bracket was a ``@contextmanager`` and the route went through six calls,
it read 40 to 46.

A timed op records one histogram sample: ``Histogram.record`` plus
``int.bit_length`` for a value of at least 1.  With the bucket rule
called as ``bucket_index`` (its frame and a ``min``), the plain lookup,
update and insert read 105 / 169 / 180, the leaf-answered lookup 101
and both facade hops 15.

No op calls the adaptive controller, armed or not: it judges only the
windows its driver feeds it.  When every ``Table`` op opened with a
``Tracer.tick`` call, the plain lookup, update and insert read 103 /
165 / 176, the leaf-answered lookup 99 and the columnar pair 138, and
arming the controller added 3 calls to each lookup and update.
"""

import gc
import sys

import pytest

from repro import Database
from repro.btree.tree import BPlusTree
from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.core.index_cache.policy import SwapPolicy
from repro.experiments.columnar import AGG_SPECS
from repro.experiments.columnar import SCHEMA as HOT_SCHEMA
from repro.query.predicates import ColumnRange
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64
from repro.shard.database import ShardedDatabase
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng
from repro.workload.wikipedia import (
    PAGE_SCHEMA,
    REVISION_SCHEMA,
    WikipediaConfig,
    generate,
)

PAYLOAD = 16  # item size 26, the bench's page-table item
ENTRY = 24

#: (page size, leaf entries) -> a window of about 10, 70 and 300 slots
LEAVES = ((1024, 29), (4096, 93), (8192, 14))

MAX_CALLS_PLAIN_HIT = 16
MAX_CALLS_PROMOTING_HIT = 37
MAX_CALLS_LOOKUP_FROM_LEAF = 75
MAX_CALLS_CACHED_HIT_LOOKUP = 98  # same key, same projection as the next
MAX_CALLS_PLAIN_LOOKUP = 102
MAX_CALLS_PLAIN_UPDATE = 164  # the one that closes a WAL group commit
MAX_CALLS_PLAIN_INSERT = 175  # likewise; no counted insert splits a leaf
MAX_CALLS_FILL = 44  # ``a``: geometry, one classification pass, the policy
MAX_CALLS_COLUMNAR_QUERY_AFTER_WRITE = 137  # one scan + one aggregate
MAX_CALLS_ROW_SCAN_PER_ROW = 6.19  # calls / rows, page brackets included
MAX_CALLS_ROW_AGGREGATE_PER_ROW = 6.2125  # likewise; the fold adds none
MAX_CALLS_FACADE_HOP = 13  # a routed lookup minus its owner's
MAX_CALLS_FACADE_UPDATE_HOP = 13  # a routed update minus its owner's
MAX_CALLS_FILL_PER_SLOT = 1  # ``b``


def count_calls(fn, *args) -> int:
    """Python + built-in calls made while ``fn(*args)`` runs (itself included).

    The collector is off meanwhile: a collection landing inside the count
    would add the frames of whatever ``gc.callbacks`` and finalizers other
    tests left behind (seen as three calls over budget, once per few
    full-suite runs).
    """
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.disable()
    sys.setprofile(on_event)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls - 1  # the closing sys.setprofile(None) is a c_call


def tid(n: int) -> bytes:
    return (0xA000 + n).to_bytes(8, "little")


def full_leaf(page_size: int, entries: int):
    """A leaf with every cache slot occupied, and a freshly seeded cache."""
    page = SlottedPage.format(bytearray(page_size), 1, PageType.BTREE_LEAF)
    for i in range(entries):
        page.insert_at(i, bytes([i % 251]) * (ENTRY - 4))
    cache = IndexCache(PAYLOAD, ENTRY, policy=SwapPolicy(DeterministicRng(1)))
    geo = cache.geometry(page)
    for slot in range(geo.num_slots):
        cache.write_slot(page, geo, slot, tid(slot), bytes([slot % 251]) * PAYLOAD)
    return page, cache, geo


def test_windows_span_ten_to_three_hundred_slots():
    sizes = [full_leaf(*leaf)[2].num_slots for leaf in LEAVES]
    assert [round(n, -1) for n in sizes] == [10, 70, 300], sizes


@pytest.mark.parametrize(
    "promotes, ceiling",
    ((False, MAX_CALLS_PLAIN_HIT), (True, MAX_CALLS_PROMOTING_HIT)),
    ids=("innermost-slot", "outermost-slot"),
)
def test_probe_hit_makes_the_same_calls_whatever_the_window(promotes, ceiling):
    counts = []
    for leaf in LEAVES:
        page, cache, geo = full_leaf(*leaf)
        ranked = geo.slots_by_stability()
        slot = ranked[-1] if promotes else ranked[0]
        counts.append(count_calls(cache.probe, page, tid(slot)))
        assert (cache.stats.hits, cache.stats.promotions) == (1, int(promotes))
    assert len(set(counts)) == 1, counts
    assert counts[0] <= ceiling, counts


def test_fill_of_a_full_window_makes_one_call_per_slot():
    for leaf in LEAVES:
        page, cache, geo = full_leaf(*leaf)
        calls = count_calls(cache.insert, page, tid(10_000), bytes(PAYLOAD))
        assert (cache.stats.inserts, cache.stats.evictions) == (1, 1)
        ceiling = MAX_CALLS_FILL + MAX_CALLS_FILL_PER_SLOT * geo.num_slots
        assert calls <= ceiling, (geo.num_slots, calls)


def test_lookup_answered_from_the_leaf_stays_under_its_call_budget():
    schema = Schema.of(("id", UINT64), ("a", UINT32), ("b", UINT32))
    pool = BufferPool(SimulatedDisk(4096), 1 << 20)
    heap = HeapFile(pool)
    index = CachedBTree(
        BPlusTree(pool, key_size=8, value_size=8), heap, schema,
        ("id",), ("a", "b"), rng=DeterministicRng(1),
        invalidation=CacheInvalidation(),
    )
    table = Table("t", schema, heap)
    table.attach_index("pk", index)
    for i in range(40):
        table.insert({"id": i, "a": i, "b": i * i})
    for i in range(40):
        index.lookup(i, ("a", "b"))
    counts = []
    for i in range(40):
        before = index.stats.answered_from_cache
        counts.append(count_calls(index.lookup, i, ("a", "b")))
        assert index.stats.answered_from_cache == before + 1
    assert max(counts) <= MAX_CALLS_LOOKUP_FROM_LEAF, counts


def _wal_revision_table(adaptive=False):
    """``point_fit``'s revision table at a tenth of its size, under WAL,
    with a plain primary-key index of height 2; ``adaptive`` arms the
    controller after the load."""
    data = generate(WikipediaConfig(n_pages=300, revisions_per_page_mean=4, seed=0))
    db = Database(wal=True)
    revision = db.create_table("revision", REVISION_SCHEMA)
    db.create_index("revision", "rev_pk", ("rev_id",))
    for row in data.revision_rows:
        revision.insert(row)
    assert revision.index("rev_pk").tree.height == 2
    if adaptive:
        db.enable_adaptive()
    return data.revision_rows, revision


def test_plain_lookup_and_update_stay_under_their_call_budgets():
    """Root, leaf in ``find_leaf``, leaf again in ``search``, heap page:
    four brackets a lookup; an update adds the ``dirty=True`` heap one."""
    rows, revision = _wal_revision_table()
    keys = [row["rev_id"] for row in rows[::31]]
    revision.lookup("rev_pk", keys[0])  # first use builds the span's histogram
    revision.update("rev_pk", keys[0], {"rev_len": 999})
    lookups, updates = [], []
    for n, key in enumerate(keys):
        lookups.append(count_calls(revision.lookup, "rev_pk", key))
        updates.append(
            count_calls(revision.update, "rev_pk", key, {"rev_len": 1_000 + n})
        )
        assert revision.lookup("rev_pk", key).values["rev_len"] == 1_000 + n
    assert max(lookups) <= MAX_CALLS_PLAIN_LOOKUP, lookups
    assert max(updates) <= MAX_CALLS_PLAIN_UPDATE, updates


def test_an_armed_controller_adds_no_call_to_a_lookup_or_an_update():
    """The same lookups and updates on two identical engines, one with
    the adaptive controller armed, make the same calls one by one."""
    counts = []
    for adaptive in (False, True):
        rows, revision = _wal_revision_table(adaptive)
        keys = [row["rev_id"] for row in rows[::31]]
        revision.lookup("rev_pk", keys[0])  # builds the spans' histograms
        revision.update("rev_pk", keys[0], {"rev_len": 999})
        counts.append([
            (count_calls(revision.lookup, "rev_pk", key),
             count_calls(revision.update, "rev_pk", key, {"rev_len": 1_000 + n}))
            for n, key in enumerate(keys)
        ])
    assert counts[0] == counts[1]


def test_plain_insert_stays_under_its_call_budget():
    """Forty rows appended past the highest key: each lands in the
    rightmost leaf without splitting it, and some close a WAL group
    commit or open a heap page."""
    rows, revision = _wal_revision_table()
    tree = revision.index("rev_pk").tree
    top = max(row["rev_id"] for row in rows)
    revision.insert(dict(rows[-1], rev_id=top + 1))
    splits = tree._m_split_leaf.value
    inserts = [
        count_calls(revision.insert, dict(rows[-1], rev_id=top + 2 + n))
        for n in range(40)
    ]
    assert tree._m_split_leaf.value == splits
    assert revision.lookup("rev_pk", top + 41).values["rev_len"] == rows[-1]["rev_len"]
    assert max(inserts) <= MAX_CALLS_PLAIN_INSERT, inserts


def test_leaf_answered_lookup_makes_fewer_calls_than_a_plain_one_on_the_same_key():
    """``point_fit``'s cached page lookup beside a plain index on the same
    ``(namespace, title)`` key.  Counted on hits that leave their item in
    place: a hit that promotes it also pays for the move, up to
    ``MAX_CALLS_PROMOTING_HIT - MAX_CALLS_PLAIN_HIT`` calls more."""
    project = ("page_id", "page_latest", "page_touched", "page_len")
    key_columns = ("page_namespace", "page_title")
    data = generate(WikipediaConfig(n_pages=300, revisions_per_page_mean=1, seed=0))
    db = Database()
    page = db.create_table("page", PAGE_SCHEMA)
    cached = db.create_cached_index("page", "cached", key_columns, project)
    db.create_index("page", "plain", key_columns)
    for row in data.page_rows:
        page.insert(row)
    assert [page.index(n).tree.height for n in ("cached", "plain")] == [2, 2]
    keys = [(row["page_namespace"], row["page_title"]) for row in data.page_rows[::7]]
    for key in keys * 6:
        page.lookup("cached", key, project)
    page.lookup("plain", keys[0], project)  # first use builds the span's histogram
    hits, plains = [], []
    for key in keys:
        answered = cached.stats.answered_from_cache
        promoted = cached.cache.stats.promotions
        calls = count_calls(page.lookup, "cached", key, project)
        assert cached.stats.answered_from_cache == answered + 1
        if cached.cache.stats.promotions == promoted:
            hits.append(calls)
        plains.append(count_calls(page.lookup, "plain", key, project))
        assert page.lookup("plain", key, project).values == \
            page.lookup("cached", key, project).values
    assert len(hits) >= 5, hits
    assert max(hits) <= MAX_CALLS_CACHED_HIT_LOOKUP < min(plains), (hits, plains)


def test_columnar_query_after_a_write_stays_under_its_call_budget():
    """``analytic_columnar``'s shape at a third of its size: after each
    update, in a different segment each time, one scan and one aggregate
    of the same predicate."""
    db = Database(wal=False)
    hot = db.create_table("hot", HOT_SCHEMA)
    db.create_index("hot", "pk", ("id",))
    for i in range(4096):
        hot.insert({"id": i, "cat": f"c{i % 6}", "n": (i * 13) % 500,
                    "d": i % 401 - 200, "flag": i % 4 == 0})
    db.enable_columnar(segment_rows=512)
    predicate = ColumnRange("n", 0, 120)

    def query():
        return list(hot.scan(predicate, ("id", "n"))), hot.aggregate(
            AGG_SPECS, predicate
        )

    query()  # builds the mirror, the memos and the spans' histograms
    counts = []
    for k, key in enumerate(range(100, 4096, 450)):
        hot.update("pk", key, {"n": k, "d": -k})
        counts.append(count_calls(query))
        assert query() == (
            list(hot.scan(predicate, ("id", "n"), use_columnar=False)),
            hot.aggregate(AGG_SPECS, predicate, use_columnar=False),
        )
    assert max(counts) <= MAX_CALLS_COLUMNAR_QUERY_AFTER_WRITE, counts


def test_row_scan_stays_under_its_per_row_call_budget():
    """The revision table's ``rev_id`` and ``rev_len`` by the row
    executor: its CHAR ``rev_comment`` is never un-padded."""
    _, revision = _wal_revision_table()
    project = ("rev_id", "rev_len")

    def scan():
        return list(revision.scan(None, project, use_columnar=False))

    rows = scan()  # first use builds the span's histogram
    calls = count_calls(scan)
    assert len(rows) == revision.num_rows == 1_200
    assert calls / len(rows) <= MAX_CALLS_ROW_SCAN_PER_ROW, calls


def test_row_aggregate_stays_under_its_per_row_call_budget():
    """``shard_fleet``'s aggregate by the row executor: the fold reads
    each spec column once per row and calls nothing per row."""
    _, revision = _wal_revision_table()
    specs = [("count", None), ("sum", "rev_len"), ("max", "rev_id")]

    def aggregate():
        return revision.aggregate(specs, use_columnar=False)

    answer = aggregate()  # first use builds the span's histogram
    calls = count_calls(aggregate)
    assert answer["count"] == revision.num_rows == 1_200
    assert calls / revision.num_rows <= MAX_CALLS_ROW_AGGREGATE_PER_ROW, calls


def test_facade_hop_stays_under_its_call_budget():
    """``shard_fleet``'s build at a tenth of its size: four WAL-backed zipf
    shards, warmed and rebalanced, so keys route both by stable hash and
    by override.  Each key's page is dirtied and its shard's WAL flushed
    first, so neither counted update closes a group commit or dirties a
    clean page."""
    data = generate(WikipediaConfig(n_pages=300, revisions_per_page_mean=4, seed=0))
    sdb = ShardedDatabase(4, mode="zipf", wal=True)
    revision = sdb.create_table("revision", REVISION_SCHEMA)
    sdb.create_index("revision", "rev_pk", ("rev_id",))
    for row in data.revision_rows:
        revision.insert(row)
    keys = [row["rev_id"] for row in data.revision_rows[::13]]
    for key in keys * 3:
        revision.lookup("rev_pk", key)
    sdb.rebalance()
    router = sdb.router
    assert 0 < sum(router.placement(k) != router.base_shard(k) for k in keys) < len(keys)
    lookups, updates = [], []
    for n, key in enumerate(keys):
        owner = revision.shard_table(router.placement(key))
        owner.update("rev_pk", key, {"rev_len": 0})
        sdb.flush_wals()
        lookups.append(
            count_calls(revision.lookup, "rev_pk", key)
            - count_calls(owner.lookup, "rev_pk", key)
        )
        updates.append(
            count_calls(revision.update, "rev_pk", key, {"rev_len": 2 * n + 1})
            - count_calls(owner.update, "rev_pk", key, {"rev_len": 2 * n + 2})
        )
        assert revision.lookup("rev_pk", key).values["rev_len"] == 2 * n + 2
    assert max(lookups) <= MAX_CALLS_FACADE_HOP, sorted(set(lookups))
    assert max(updates) <= MAX_CALLS_FACADE_UPDATE_HOP, sorted(set(updates))
