"""Vectorized executor vs the row oracle (DESIGN.md §5h).

The contract under test: with the columnar mirror attached, every scan
and aggregate the batch kernels can serve is *list-identical* (same
rows, same values, same heap order) to the unchanged row executor, for
every predicate shape, across inserts/updates/deletes, and through the
memoised answers.  Unsupported predicates must fall back, counted, and
still be correct.
"""

from __future__ import annotations

import pytest

from repro.columnar.store import MEMO_ENTRIES
from repro.errors import QueryError
from repro.query.database import Database
from repro.query.predicates import (
    And,
    ColumnEq,
    ColumnIn,
    ColumnRange,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.schema.schema import Schema
from repro.schema.types import BOOL, INT32, UINT32, char

pytestmark = pytest.mark.columnar

SCHEMA = Schema.of(
    ("id", UINT32), ("cat", char(4)), ("n", UINT32), ("d", INT32),
    ("flag", BOOL),
)


def make_db(n_rows: int = 500, segment_rows: int = 64):
    db = Database(seed=3, wal=False)
    db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    table = db.table("t")
    for i in range(n_rows):
        table.insert(
            {
                "id": i,
                "cat": f"c{i % 5}",
                "n": (i * 7) % 250,
                "d": (i % 50) - 25,
                "flag": i % 3 == 0,
            }
        )
    manager = db.enable_columnar(segment_rows=segment_rows)
    return db, table, manager


PREDICATES = [
    TruePredicate(),
    ColumnEq("cat", "c2"),
    ColumnEq("flag", True),
    ColumnIn.of("cat", ["c0", "c3"]),
    ColumnRange("n", 40, 160),
    ColumnRange("n", lo=200),
    ColumnRange("n", hi=30),
    ColumnRange("d", -10, 10),
    And((ColumnRange("n", 20, 200), ColumnEq("flag", False))),
    Or((ColumnEq("cat", "c1"), ColumnRange("n", 240, 250))),
    Not(ColumnEq("cat", "c4")),
    Not(And((ColumnEq("flag", True), ColumnRange("n", 0, 125)))),
    And(()),
    Or(()),
]


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: repr(p)[:48])
def test_scan_matches_row_oracle(predicate):
    _, table, _ = make_db()
    expected = list(table.scan(predicate, use_columnar=False))
    got = list(table.scan(predicate))
    assert got == expected


@pytest.mark.parametrize("predicate", PREDICATES[:8], ids=lambda p: repr(p)[:48])
def test_aggregate_matches_row_oracle(predicate):
    _, table, _ = make_db()
    specs = [("count", None), ("sum", "n"), ("min", "n"), ("max", "n"),
             ("avg", "d")]
    expected = table.aggregate(specs, predicate, use_columnar=False)
    got = table.aggregate(specs, predicate)
    assert got == expected


def test_projection_matches_row_oracle():
    _, table, _ = make_db()
    predicate = ColumnRange("n", 10, 90)
    for project in (("id",), ("n", "cat"), ("flag", "id", "d")):
        expected = list(table.scan(predicate, project, use_columnar=False))
        assert list(table.scan(predicate, project)) == expected


def test_empty_selection_aggregate_identities():
    _, table, _ = make_db()
    predicate = ColumnEq("cat", "zzzz")
    got = table.aggregate(
        [("count", None), ("sum", "n"), ("min", "n"), ("max", "n"),
         ("avg", "n")],
        predicate,
    )
    assert got == {
        "count": 0, "sum(n)": 0, "min(n)": None, "max(n)": None,
        "avg(n)": None,
    }
    assert got == table.aggregate(
        [("count", None), ("sum", "n"), ("min", "n"), ("max", "n"),
         ("avg", "n")],
        predicate,
        use_columnar=False,
    )


def test_empty_table_scan_and_aggregate():
    db = Database(seed=3, wal=False)
    db.create_table("e", SCHEMA)
    db.create_index("e", "pk", ("id",))
    db.enable_columnar()
    table = db.table("e")
    assert list(table.scan()) == []
    assert table.aggregate([("count", None), ("sum", "n")]) == {
        "count": 0, "sum(n)": 0,
    }


class _OddId(Predicate):
    """A predicate class the kernels can't compile."""

    def matches(self, row) -> bool:
        return row["id"] % 2 == 1


def test_unsupported_predicate_falls_back_and_counts():
    db, table, _ = make_db()
    before = db.metrics.snapshot()["columnar"]["fallbacks"]
    expected = list(table.scan(_OddId(), use_columnar=False))
    got = list(table.scan(_OddId()))
    assert got == expected and len(got) == 250
    after = db.metrics.snapshot()["columnar"]["fallbacks"]
    # Only the default-path scan planned (use_columnar=False never plans).
    assert after == before + 1


def test_mutations_keep_mirror_and_oracle_identical():
    _, table, _ = make_db(n_rows=300, segment_rows=50)
    predicate = ColumnRange("n", 0, 250)
    list(table.scan(predicate))  # build the mirror
    table.update("pk", 10, {"n": 249})
    table.delete("pk", 20)
    table.insert({"id": 900, "cat": "c9", "n": 1, "d": 0, "flag": False})
    table.update("pk", 900, {"n": 2})
    table.delete("pk", 900)
    assert list(table.scan(predicate)) == list(
        table.scan(predicate, use_columnar=False)
    )
    specs = [("count", None), ("sum", "n")]
    assert table.aggregate(specs, predicate) == table.aggregate(
        specs, predicate, use_columnar=False
    )


def test_slot_reuse_after_delete_stays_correct():
    """Deleting then inserting reuses heap slots; the mirror must follow
    heap order, not insertion order."""
    _, table, _ = make_db(n_rows=200, segment_rows=32)
    list(table.scan())  # build
    for i in range(0, 100, 2):
        table.delete("pk", i)
    for i in range(1000, 1060):
        table.insert(
            {"id": i, "cat": "cX", "n": i % 250, "d": 0, "flag": True}
        )
    assert list(table.scan()) == list(table.scan(use_columnar=False))


def test_cache_hit_serves_fresh_copies():
    db, table, manager = make_db()
    predicate = ColumnEq("cat", "c1")
    first = list(table.scan(predicate))
    hits0 = manager.stats.cache_hits
    second = list(table.scan(predicate))
    assert manager.stats.cache_hits == hits0 + 1
    assert second == first
    # Mutating served rows must not poison the cached master.
    second[0]["n"] = 999999
    third = list(table.scan(predicate))
    assert third == first


def test_cache_invalidated_by_write_epoch():
    _, table, manager = make_db()
    predicate = ColumnRange("n", 0, 100)
    list(table.scan(predicate))
    invalidations0 = manager.stats.cache_invalidations
    table.update("pk", 1, {"n": 7})
    fresh = list(table.scan(predicate))
    assert manager.stats.cache_invalidations == invalidations0 + 1
    assert fresh == list(table.scan(predicate, use_columnar=False))


def test_fingerprint_collision_disambiguated_by_predicate_key():
    """Two scans share a profiler fingerprint (constants are normalized
    away) but must never share a cache entry."""
    _, table, _ = make_db()
    narrow = list(table.scan(ColumnRange("n", 0, 10)))
    wide = list(table.scan(ColumnRange("n", 0, 200)))
    assert len(narrow) < len(wide)
    assert narrow == list(table.scan(ColumnRange("n", 0, 10)))


def test_unknown_aggregate_op_rejected():
    _, table, _ = make_db(n_rows=10)
    with pytest.raises(QueryError):
        table.aggregate([("median", "n")])
    with pytest.raises(QueryError):
        table.aggregate([("sum", "nope")])


def test_reset_obs_zeroes_columnar_family():
    """``registry.reset()`` zeroes the ``columnar.*`` counters while the
    gauges keep describing live state."""
    db, table, manager = make_db()
    list(table.scan(ColumnEq("cat", "c1")))
    list(table.scan(ColumnEq("cat", "c1")))
    table.aggregate([("sum", "n")], ColumnRange("n", 0, 50))
    family = db.metrics.snapshot()["columnar"]
    assert family["scans"] == 2 and family["aggregates"] == 1
    assert family["cache"]["hits"] == 1
    db.metrics.reset()
    family = db.metrics.snapshot()["columnar"]
    assert family["scans"] == 0
    assert family["aggregates"] == 0
    assert family["rebuilds"] == 0
    assert family["segments_sealed"] == 0
    assert family["fallbacks"] == 0
    assert family["cache"]["hits"] == 0
    assert family["cache"]["misses"] == 0
    assert family["cache"]["invalidations"] == 0
    # Gauges describe *now*, not the window: still mirroring live rows.
    assert family["rows"] == 500.0
    # And the window restarts honestly: new traffic counts from zero.
    list(table.scan(ColumnEq("cat", "c2")))
    assert db.metrics.snapshot()["columnar"]["scans"] == 1


def test_drop_forgets_the_mirror_and_its_cached_fragments():
    """A table re-created under a dropped name, after as many writes, asks
    the same questions the dropped one did: an answer kept past the drop
    would serve the dropped rows."""
    db = Database(seed=3, wal=False)
    db.enable_columnar()

    def fill(name: str, values) -> None:
        db.create_table(name, SCHEMA)
        db.create_index(name, f"pk_{name}", ("id",))
        for k, n in enumerate(values):
            db.table(name).insert(
                {"id": k, "cat": "c0", "n": n, "d": 0, "flag": False}
            )

    fill("a", range(10))
    fill("b", range(7))
    assert sorted(r["n"] for r in db.table("a").scan()) == list(range(10))
    db.drop_table("a")
    list(db.table("b").scan())
    assert "a" not in db.columnar._stores
    assert db.metrics.get("columnar.rows").value == 7
    fill("a", range(1000, 1010))
    fresh = db.table("a")
    assert sorted(r["n"] for r in fresh.scan()) == list(range(1000, 1010))
    assert list(fresh.scan()) == list(fresh.scan(use_columnar=False))


def test_dropped_and_recreated_table_gets_fresh_mirror():
    db, table, _ = make_db(n_rows=20)
    list(table.scan())
    db.drop_table("t")
    db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    fresh = db.table("t")
    fresh.insert({"id": 1, "cat": "c0", "n": 5, "d": 0, "flag": True})
    assert list(fresh.scan()) == list(fresh.scan(use_columnar=False))
    assert len(list(fresh.scan())) == 1


# -- seeded writes across sealed segments --------------------------------------

AGG_SPECS = [("count", None), ("sum", "n"), ("min", "n"), ("max", "d"),
             ("avg", "d")]


def assert_every_answer_identical(table) -> None:
    """All 14 predicate shapes, scan (two projections) and aggregate, on
    both executors: list-identical, asked twice so a reused answer is
    checked as well as a fresh one."""
    for predicate in PREDICATES:
        for project in (None, ("d", "id")):
            expected = list(table.scan(predicate, project, use_columnar=False))
            assert list(table.scan(predicate, project)) == expected
            assert list(table.scan(predicate, project)) == expected
        expected = table.aggregate(AGG_SPECS, predicate, use_columnar=False)
        assert table.aggregate(AGG_SPECS, predicate) == expected
        assert table.aggregate(AGG_SPECS, predicate) == expected


def _row(i: int, rng) -> dict[str, object]:
    return {"id": i, "cat": f"c{rng.randrange(6)}", "n": rng.randrange(250),
            "d": rng.randint(-40, 40), "flag": rng.random() < 0.4}


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_writes_keep_every_answer_identical(seed):
    """Updates, deletes and inserts that land on tombstoned slots, over a
    multi-page heap mirrored in 16-row segments; every answer after every
    write equals the row executor's."""
    import random

    rng = random.Random(seed)
    db = Database(page_size=1024, seed=seed, wal=False)
    db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    table = db.table("t")
    rids = {i: table.insert(_row(i, rng)) for i in range(160)}
    assert table.heap.num_pages > 2
    db.enable_columnar(segment_rows=16)
    assert_every_answer_identical(table)
    store = table.columnar.store
    segments = store.segments
    assert len(segments) == 10 and all(s.sealed for s in segments[:-1])

    def assert_live_rows_kept() -> None:
        assert store.live_rows == sum(s.live_count for s in store.segments)

    # A write to a sealed middle segment (row 40 is segment 2's), then a
    # query straight after it.
    table.update("pk", 40, {"n": 3, "d": -39, "flag": True})
    assert_live_rows_kept()
    assert_every_answer_identical(table)

    dead: set = set()
    reused = 0
    next_id = 1000
    for _ in range(36):
        draw = rng.random()
        live = sorted(rids)
        if draw < 0.5:
            key = rng.choice(live)
            table.update("pk", key, {"n": rng.randrange(250),
                                     "d": rng.randint(-40, 40),
                                     "flag": rng.random() < 0.5})
        elif draw < 0.75:
            key = rng.choice(live)
            dead.add(rids.pop(key))
            assert table.delete("pk", key)
        else:
            rid = table.insert(_row(next_id, rng))
            reused += rid in dead
            dead.discard(rid)
            rids[next_id] = rid
            next_id += 1
        assert_live_rows_kept()
        assert_every_answer_identical(table)
    assert reused > 0  # some insert took a tombstoned slot's RID
    assert store.live_rows == len(rids)


def test_fragment_cache_counts_pinned():
    """The store's memo of whole answers over one scripted sequence: every
    hit, miss and answer a write drops, as it counts them."""
    _, table, manager = make_db()
    p, q = ColumnRange("n", 40, 160), ColumnEq("cat", "c2")
    specs = [("count", None), ("sum", "n")]
    stats = manager.stats
    seen = []

    def step(action) -> None:
        action()
        seen.append(
            (stats.cache_hits, stats.cache_misses, stats.cache_invalidations)
        )

    step(lambda: list(table.scan(p)))
    step(lambda: list(table.scan(p)))
    step(lambda: table.aggregate(specs, p))
    step(lambda: table.aggregate(specs, p))
    step(lambda: list(table.scan(q)))
    step(lambda: table.update("pk", 5, {"n": 41}))
    step(lambda: list(table.scan(p)))
    step(lambda: table.aggregate(specs, p))
    step(lambda: list(table.scan(p)))
    step(lambda: table.insert(
        {"id": 900, "cat": "c2", "n": 50, "d": 0, "flag": False}))
    step(lambda: list(table.scan(q)))
    step(lambda: table.delete("pk", 7))
    step(lambda: table.aggregate(specs, q))
    step(lambda: list(table.scan(p, ("id",))))
    step(lambda: list(table.scan(p)))
    step(lambda: list(table.scan(p)))
    step(lambda: list(table.scan(p, ("id",))))
    assert seen == [
        (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 2, 0), (2, 3, 0),
        (2, 3, 3), (2, 4, 3), (2, 5, 3), (3, 5, 3),
        (3, 5, 5), (3, 6, 5), (3, 6, 6), (3, 7, 6), (3, 8, 6),
        (3, 9, 6), (4, 9, 6), (5, 9, 6),
    ]
    assert len(table.columnar.store.memo) == 3


def test_write_keeps_no_dead_answer():
    """A write drops every answer the table held at once, not on the
    next query that asks for one, so a dropped answer keeps no rows."""
    db, table, _ = make_db()
    p, q = ColumnRange("n", 40, 160), ColumnEq("cat", "c2")
    list(table.scan(p))
    list(table.scan(q))
    table.aggregate(AGG_SPECS, p)
    table.update("pk", 5, {"n": 41})
    assert list(table.scan(p)) == list(table.scan(p, use_columnar=False))
    assert db.metrics.get("columnar.cache.entries").value == 1


# -- per-segment memo ----------------------------------------------------------


def test_write_drops_only_its_segments_memo():
    """A query after a write reuses every segment's memoised work but the
    written segment's, and answers as the row executor does."""
    _, table, _ = make_db(n_rows=256, segment_rows=64)
    predicate = ColumnRange("n", 40, 160)
    list(table.scan(predicate))
    table.aggregate(AGG_SPECS, predicate)
    segments = table.columnar.store.segments
    before = [dict(segment.memo) for segment in segments]
    assert all(len(memo) == 3 for memo in before)  # selection, rows, partial
    table.update("pk", 100, {"n": 41})  # row 100 is segment 1's
    assert [len(segment.memo) for segment in segments] == [3, 0, 3, 3]
    assert list(table.scan(predicate)) == list(
        table.scan(predicate, use_columnar=False)
    )
    assert table.aggregate(AGG_SPECS, predicate) == table.aggregate(
        AGG_SPECS, predicate, use_columnar=False
    )
    for index in (0, 2, 3):  # the very same objects: nothing recomputed
        memo = segments[index].memo
        assert all(memo[key] is value for key, value in before[index].items())
    assert len(segments[1].memo) == 3


def test_segment_memo_bounded_by_cache_entries():
    """Ten times ``MEMO_ENTRIES`` distinct predicates leave the store's
    memo and every segment's at its cap, never above it."""
    _, table, _ = make_db(n_rows=64, segment_rows=16)
    cap = MEMO_ENTRIES
    for k in range(10 * cap):
        predicate = ColumnEq("n", k)
        list(table.scan(predicate, ("id",)))
        table.aggregate([("count", None)], predicate)
    memo_sizes = [len(segment.memo) for segment in table.columnar.store.segments]
    assert memo_sizes == [cap] * 4
    assert len(table.columnar.store.memo) == cap


def test_clear_fragments_drops_segment_memos_too():
    """``experiments.columnar``'s cold regime clears before each query;
    a cleared manager must keep no segment's work either."""
    _, table, manager = make_db(segment_rows=64)
    predicate = ColumnEq("cat", "c1")
    expected = list(table.scan(predicate))
    assert all(segment.memo for segment in table.columnar.store.segments)
    manager.clear_fragments()
    assert len(table.columnar.store.memo) == 0
    assert not any(segment.memo for segment in table.columnar.store.segments)
    assert list(table.scan(predicate)) == expected
