"""The cached hit path's two memos are bounded and can never go stale.

``IndexCache.geometry`` memoises slot layouts by ``(page size, free
window)`` and an index memoises projection plans by projection.  Both keys
are the memo's whole input, so an entry is right for as long as it
exists; what has to be shown is that neither grows without bound, and
that a cache shown pages of two sizes keeps their layouts apart.  Neither
memo publishes a metric: the metric-name table does not change.
"""

import pytest

from repro import Database
from repro.core.index_cache.cache import GEOMETRY_MEMO_CAP, IndexCache
from repro.core.index_cache.cached_index import PLAN_CAP
from repro.core.index_cache.layout import CacheGeometry, item_size_for_payload
from repro.errors import PageFullError
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.constants import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    SLOT_ENTRY_SIZE,
    PageType,
)
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng

PAYLOAD = 12
ENTRY = 24


def tid(n: int) -> bytes:
    return n.to_bytes(8, "little")


def fresh(page: SlottedPage) -> CacheGeometry:
    """The page's geometry built from scratch, bypassing any memo."""
    return CacheGeometry(
        page.size, *page.free_window(), item_size_for_payload(PAYLOAD), ENTRY
    )


def churn_one_leaf(cache: IndexCache, windows: set) -> int:
    """Fill a leaf from empty, then insert and delete entries for ten times
    its capacity, probing and filling the cache after every change;
    returns the capacity."""
    page = SlottedPage.format(bytearray(1024), 1, PageType.BTREE_LEAF)
    script = DeterministicRng(9)

    def touch(n: int) -> None:
        windows.add(page.free_window())
        assert cache.geometry(page) == fresh(page)
        if cache.probe(page, tid(n % 50)) is None:
            cache.insert(page, tid(n % 50), bytes([n % 251]) * PAYLOAD)

    def insert(n: int) -> bool:
        at = script.randrange(page.slot_count + 1)
        for _ in range(2):
            try:
                page.insert_at(at, bytes([n % 251]) * ENTRY)
                return True
            except PageFullError:
                page.compact()  # what a B+Tree leaf does before it splits
        return False

    n = 0
    while insert(n):
        touch(n)
        n += 1
    capacity = page.slot_count
    for _ in range(10 * capacity):
        n += 1
        if script.random() < 0.5 or not insert(n):
            page.remove_at(script.randrange(page.slot_count))
        touch(n)
    return capacity


def test_geometry_memo_plateaus_under_churn_of_one_leaf():
    """A leaf's window is ``(H + 4·entries, P − F − K·records)``, records
    counting the orphans a delete leaves until the next compaction: a
    finite set, well under the cap, that the memo can only fill."""
    cache = IndexCache(PAYLOAD, ENTRY)
    windows = set()
    capacity = churn_one_leaf(cache, windows)

    def lo_of(entries: int) -> int:
        return PAGE_HEADER_SIZE + SLOT_ENTRY_SIZE * entries

    def hi_of(records: int) -> int:
        return 1024 - PAGE_FOOTER_SIZE - ENTRY * records

    reachable = {
        (lo_of(entries), hi_of(records))
        for records in range((hi_of(0) - lo_of(0)) // ENTRY + 1)
        for entries in range(records + 1)
        if lo_of(entries) <= hi_of(records)
    }
    assert capacity > 20 and windows <= reachable
    assert len(cache._geometries) == len(windows)  # one entry per window
    assert len(reachable) <= GEOMETRY_MEMO_CAP
    churn_one_leaf(cache, windows)  # the same churn again: nothing new
    assert len(cache._geometries) == len(windows)


def test_geometry_memo_keeps_to_its_cap():
    cache = IndexCache(PAYLOAD, ENTRY)
    for size in range(512, 512 + 8 * (GEOMETRY_MEMO_CAP + 100), 8):
        page = SlottedPage.format(bytearray(size), 1, PageType.BTREE_LEAF)
        assert cache.geometry(page) == fresh(page)
        assert len(cache._geometries) <= GEOMETRY_MEMO_CAP
    assert len(cache._geometries) == GEOMETRY_MEMO_CAP


def test_two_page_sizes_with_one_window_get_their_own_geometries():
    """Same free window, different page sizes: the stable point differs."""
    small = SlottedPage.format(bytearray(1024), 1, PageType.BTREE_LEAF)
    large = SlottedPage.format(bytearray(2048), 2, PageType.BTREE_LEAF)
    for i in range(4):
        small.insert_at(i, bytes([i + 1]) * 20)
        large.insert_at(i, bytes([i + 1]) * (20 + 1024 // 4))
    assert small.free_window() == large.free_window()
    cache = IndexCache(PAYLOAD, ENTRY)
    geos = [cache.geometry(page) for page in (small, large, small, large)]
    assert geos[0] is geos[2] and geos[1] is geos[3]
    assert geos[0] == fresh(small)
    assert geos[1] == fresh(large)
    assert geos[0].stable_point != geos[1].stable_point


SCHEMA = Schema.of(
    ("id", UINT64), ("name", char(8)), ("a", UINT32), ("b", UINT32), ("c", UINT32),
)


@pytest.mark.parametrize("kind", ("plain", "cached"))
def test_projection_plans_stay_under_their_cap_and_right(kind):
    db = Database(page_size=1024)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "plain", ("id",))
    db.create_cached_index("t", "cached", ("id",), ("a", "b", "name"))
    rows = [{"id": i, "name": f"n{i}", "a": i, "b": 2 * i, "c": 3 * i} for i in range(30)]
    for row in rows:
        table.insert(row)
    index = table.index(kind)
    script = DeterministicRng(4)
    seen = set()
    while len(seen) < 10 * PLAN_CAP:
        project = tuple(
            SCHEMA.names[script.randrange(len(SCHEMA))]
            for _ in range(1 + script.randrange(6))
        )
        seen.add(project)
        i = script.randrange(len(rows))
        for _ in range(2):  # a cached index: a fill, then (often) a hit
            got = table.lookup(kind, i, project)
            assert got.values == {name: rows[i][name] for name in project}
        many = table.lookup_many(kind, [i, 99], list(project))
        assert [r.values for r in many] == [got.values, None]
        assert len(index._plans) <= PLAN_CAP
    assert len(index._plans) == PLAN_CAP
    if kind == "cached":
        assert index.stats.answered_from_cache > 100
