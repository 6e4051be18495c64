"""FkJoinCache: §2.2's join-result caching in heap-page free space."""

import pytest

from repro.errors import QueryError
from repro.query.database import Database
from repro.query.executor import FkJoinCache
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.util.rng import DeterministicRng

PARENT = Schema.of(("pid", UINT64), ("pname", char(12)), ("weight", UINT32))
CHILD = Schema.of(("cid", UINT64), ("fk", UINT64), ("val", UINT32))


def build():
    db = Database(data_pool_pages=1024, seed=1)
    parent = db.create_table("parent", PARENT)
    db.create_index("parent", "parent_pk", ("pid",))
    child = db.create_table("child", CHILD)
    db.create_index("child", "child_pk", ("cid",))
    for p in range(10):
        parent.insert({"pid": p, "pname": f"p{p}", "weight": p * 3})
    child_rids = {}
    for c in range(50):
        child_rids[c] = child.insert({"cid": c, "fk": c % 10, "val": c})
    join = FkJoinCache(
        child, parent, "parent_pk", "fk", ("pname", "weight"),
        rng=DeterministicRng(2),
    )
    return join, child_rids


def test_join_fetch_merges_both_sides():
    join, rids = build()
    got = join.join_fetch(rids[13], ("cid", "val", "pname", "weight"))
    assert got == {"cid": 13, "val": 13, "pname": "p3", "weight": 9}


def test_repeat_probe_hits_cache():
    join, rids = build()
    join.join_fetch(rids[13], ("cid", "pname"))
    got = join.join_fetch(rids[13], ("cid", "pname"))
    assert got["pname"] == "p3"
    assert join.stats.cache_hits >= 1
    assert join.stats.probes > 0  # so the hit rate is above zero


def test_sibling_children_share_cached_parent():
    """Children of the same parent on the same heap page reuse the item."""
    join, rids = build()
    join.join_fetch(rids[3], ("pname",))   # fk = 3
    before = join.stats.parent_lookups
    join.join_fetch(rids[13], ("pname",))  # fk = 3 as well, same heap page?
    # Either a hit (same page) or one more parent lookup (different page);
    # both are valid — but the merged values must be identical.
    a = join.join_fetch(rids[3], ("pname", "weight"))
    b = join.join_fetch(rids[13], ("pname", "weight"))
    assert a == b


def test_child_only_projection_skips_parent():
    join, rids = build()
    got = join.join_fetch(rids[7], ("cid", "val"))
    assert got == {"cid": 7, "val": 7}
    assert join.stats.parent_lookups == 0


def test_unknown_parent_column_rejected():
    join, rids = build()
    with pytest.raises(QueryError):
        join.join_fetch(rids[0], ("cid", "not_cached_col"))


def test_validation_errors():
    db = Database()
    parent = db.create_table("p", PARENT)
    db.create_index("p", "p_pk", ("pid",))
    child = db.create_table("c", CHILD)
    with pytest.raises(QueryError):
        FkJoinCache(child, parent, "p_pk", "missing_fk", ("pname",))


def test_project_fk_column_itself_no_duplicate():
    """Naming the FK in the projection must not duplicate the unpack list."""
    join, rids = build()
    got = join.join_fetch(rids[13], ("cid", "fk", "pname"))
    assert got == {"cid": 13, "fk": 3, "pname": "p3"}
    # And again from a warm cache, same answer.
    got = join.join_fetch(rids[13], ("cid", "fk", "pname"))
    assert got == {"cid": 13, "fk": 3, "pname": "p3"}


def test_parent_update_invalidates_cached_join_payload():
    """The stale-read regression: a parent update must be visible on the
    next probe, not served from the heap-page cache forever."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    db = Database(data_pool_pages=1024, seed=1, metrics=registry)
    parent = db.create_table("parent", PARENT)
    db.create_index("parent", "parent_pk", ("pid",))
    child = db.create_table("child", CHILD)
    db.create_index("child", "child_pk", ("cid",))
    for p in range(10):
        parent.insert({"pid": p, "pname": f"p{p}", "weight": p * 3})
    rids = {}
    for c in range(50):
        rids[c] = child.insert({"cid": c, "fk": c % 10, "val": c})
    join = FkJoinCache(
        child, parent, "parent_pk", "fk", ("pname", "weight"),
        rng=DeterministicRng(2), registry=registry,
    )
    # Warm: this caches p3's fields in rid 13's heap page.
    assert join.join_fetch(rids[13], ("pname", "weight")) == \
        {"pname": "p3", "weight": 9}
    assert parent.update("parent_pk", 3, {"pname": "RENAMED", "weight": 77})
    got = join.join_fetch(rids[13], ("pname", "weight"))
    assert got == {"pname": "RENAMED", "weight": 77}
    # The invalidation is visible in the query.join.* metrics family.
    assert join.stats.invalidations >= 1
    assert registry.snapshot()["query"]["join"]["stale_invalidations"] >= 1


def test_parent_delete_invalidates_cached_join_payload():
    join, rids = build()
    join.join_fetch(rids[13], ("pname",))      # cache p3
    parent = join._parent
    assert parent.delete("parent_pk", 3)
    # The cached payload must NOT mask the dangling FK.
    with pytest.raises(QueryError):
        join.join_fetch(rids[13], ("pname",))


def test_parent_update_of_uncached_column_logs_nothing():
    join, rids = build()
    join.join_fetch(rids[13], ("pname",))
    before = join.invalidation.predicates_logged
    # ``pid`` is the key (guarded separately); no non-key uncached parent
    # column exists in this schema, so update a *cached* one and check the
    # log grows by exactly one predicate — targeted, not full.
    full_before = join.invalidation.full_invalidations
    join._parent.update("parent_pk", 3, {"weight": 123})
    assert join.invalidation.predicates_logged == before + 1
    assert join.invalidation.full_invalidations == full_before


def test_parent_key_change_falls_back_to_full_invalidation():
    """Defense in depth: ``Table.update`` rejects key-column changes, but
    if an observer ever reports one, the cache must invalidate everything
    (the old key can't be derived from the new row)."""
    join, rids = build()
    join.join_fetch(rids[13], ("pname",))      # cache p3
    before = join.invalidation.full_invalidations
    join.note_parent_update({"pid": 103, "pname": "p3", "weight": 9}, {"pid"})
    assert join.invalidation.full_invalidations == before + 1
    # The zeroed cache forces a fresh (and correct) parent lookup.
    lookups = join.stats.parent_lookups
    assert join.join_fetch(rids[13], ("pname",)) == {"pname": "p3"}
    assert join.stats.parent_lookups == lookups + 1


def test_join_fetch_many_matches_scalar():
    join_s, rids = build()
    order = [13, 3, 23, 0, 49, 13, 7]
    project = ("cid", "fk", "val", "pname", "weight")
    scalar = [join_s.join_fetch(rids[c], project) for c in order]
    join_b, rids_b = build()
    batched = join_b.join_fetch_many([rids_b[c] for c in order], project)
    assert scalar == batched
    # Warm second pass: all hits, zero extra parent lookups.
    before = join_b.stats.parent_lookups
    again = join_b.join_fetch_many([rids_b[c] for c in order], project)
    assert again == batched
    assert join_b.stats.parent_lookups == before


def test_join_fetch_many_child_only_and_empty():
    join, rids = build()
    assert join.join_fetch_many([], ("cid",)) == []
    got = join.join_fetch_many([rids[1], rids[2]], ("cid", "val"))
    assert got == [{"cid": 1, "val": 1}, {"cid": 2, "val": 2}]
    assert join.stats.parent_lookups == 0
