"""Exhaustive 2-session interleaving matrix for *columnar* snapshot reads.

Mirror of ``test_txn_interleavings.py`` with the §5h vectorized executor
armed.  The columnar mirror shadows the physical heap — which under
MVCC holds *dirty* (uncommitted) data by design, with visibility
resolved per-session by the version overlay.  These schedules pin the
contract that matters: an uncommitted writer's pending claim must never
surface through the vectorized path, at any interleaving, and the
columnar table-level scan stays byte-identical to the row oracle even
while claims and version chains are live.
"""

from __future__ import annotations

import pytest

from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char
from repro.txn.scheduler import SimScheduler, interleavings

pytestmark = [pytest.mark.txn, pytest.mark.columnar]

SCHEMA = Schema.of(("id", UINT32), ("name", char(8)), ("score", UINT32))


def make_db() -> Database:
    db = Database(seed=7, wal=False, page_size=512, data_pool_pages=8)
    db.create_table("t", SCHEMA)
    db.create_index("t", "by_id", ("id",))
    db.table("t").insert({"id": 1, "name": "base", "score": 10})
    # Small segments so even this tiny table crosses a segment boundary
    # once the writer's inserts land.
    db.enable_columnar(segment_rows=4)
    # Build the mirror *before* any transaction runs, so every dirty
    # heap write below mutates a live mirror rather than a lazy one.
    assert [r["score"] for r in db.table("t").scan()] == [10]
    return db


def run_schedule(make_script, step_counts, schedule):
    db = make_db()
    sched = SimScheduler(db, n_sessions=len(step_counts), seed=0)
    trace = sched.run(make_script, schedule=list(schedule))
    return db, sched, trace


def step_position(schedule, session, n) -> int:
    """Index in the schedule of session's n-th resumption (0-based)."""
    seen = 0
    for pos, idx in enumerate(schedule):
        if idx == session:
            if seen == n:
                return pos
            seen += 1
    raise AssertionError("schedule exhausted")


def assert_columnar_is_oracle(db) -> None:
    """Table-level scans agree row-for-row between both executors —
    including mid-transaction, when the heap holds uncommitted data."""
    table = db.table("t")
    assert list(table.scan()) == list(table.scan(use_columnar=False))


def test_columnar_scan_no_dirty_reads_every_schedule():
    """Writer commits 999 over 10; a concurrent reader's *scans* (the
    vectorized path) must see one consistent snapshot — 10 or 999 by
    begin order, never the uncommitted value mid-flight."""
    schedules = list(interleavings([3, 4]))
    assert len(schedules) == 35  # the whole space, no sampling
    for schedule in schedules:
        observed = []

        def make_script(i, session):
            if i == 0:
                def writer(s=session):
                    s.begin()
                    yield
                    s.update("t", 1, {"score": 999})
                    yield
                    s.commit()
                return writer()

            def reader(s=session):
                s.begin()
                yield
                first = {r["id"]: r["score"] for r in s.scan("t")}
                yield
                second = {r["id"]: r["score"] for r in s.scan("t")}
                yield
                s.commit()
                observed.append((first, second))
            return reader()

        db, sched, _ = run_schedule(make_script, [3, 4], schedule)
        assert sched.conflicts == 0
        first, second = observed[0]
        assert first == second, f"non-repeatable columnar scan in {schedule}"
        committed_first = step_position(schedule, 0, 2) < step_position(
            schedule, 1, 0
        )
        assert first == {1: 999 if committed_first else 10}, schedule
        rows = {r["id"]: r["score"] for r in db.table("t").scan()}
        assert rows == {1: 999}
        assert_columnar_is_oracle(db)


def test_columnar_scan_vs_concurrent_update_mid_claim():
    """At *every* point while the writer's claim is pending (updated but
    not yet committed), a fresh snapshot scan sees the old value."""
    for schedule in interleavings([3, 2]):
        observed = []

        def make_script(i, session):
            if i == 0:
                def writer(s=session):
                    s.begin()
                    yield
                    s.update("t", 1, {"score": 777})
                    yield
                    s.commit()
                return writer()

            def reader(s=session):
                s.begin()
                scanned = {r["id"]: r["score"] for r in s.scan("t")}
                yield
                s.commit()
                observed.append(scanned)
            return reader()

        db, sched, _ = run_schedule(make_script, [3, 2], schedule)
        assert sched.conflicts == 0
        scanned = observed[0]
        # The reader began before the writer's commit in some schedules
        # and after in others; it must see exactly one of the two
        # committed states — never the writer's still-pending claim.
        assert scanned in ({1: 10}, {1: 777}), schedule
        committed_first = step_position(schedule, 0, 2) < step_position(
            schedule, 1, 0
        )
        assert scanned == {1: 777 if committed_first else 10}, schedule
        assert_columnar_is_oracle(db)


def test_columnar_abort_leaves_no_trace_every_schedule():
    """An aborting writer (update + inserts crossing a segment boundary,
    then abort) must be invisible to concurrent columnar scans and
    absent from the final mirror."""
    for schedule in interleavings([4, 3]):
        observed = []

        def make_script(i, session):
            if i == 0:
                def aborter(s=session):
                    s.begin()
                    yield
                    s.update("t", 1, {"score": 555})
                    yield
                    # Enough ghosts to seal a 4-row segment mid-txn.
                    for gid in range(90, 96):
                        s.insert(
                            "t",
                            {"id": gid, "name": "ghost", "score": gid},
                        )
                    yield
                    s.abort()
                    yield
                return aborter()

            def reader(s=session):
                s.begin()
                yield
                scanned = {r["id"]: r["score"] for r in s.scan("t")}
                yield
                s.commit()
                observed.append(scanned)
            return reader()

        db, sched, _ = run_schedule(make_script, [4, 3], schedule)
        assert sched.conflicts == 0
        assert observed[0] == {1: 10}, schedule
        rows = {r["id"]: r["score"] for r in db.table("t").scan()}
        assert rows == {1: 10}, schedule
        assert_columnar_is_oracle(db)


def test_columnar_fragment_cache_never_serves_across_commit():
    """A scan answered before a session's write must not be served after
    its commit: the write itself drops the table's memoised answers."""
    db = make_db()
    table = db.table("t")
    baseline = list(table.scan())
    s = db.session()
    s.begin()
    s.update("t", 1, {"score": 321})
    s.commit()
    after = list(table.scan())
    assert after == list(table.scan(use_columnar=False))
    assert [r["score"] for r in after] == [321]
    assert baseline != after


def test_commit_that_writes_no_heap_row_keeps_the_answers():
    """A session's update reaches the heap, and the mirror, when it runs;
    its commit writes no heap row, so a scan memoised between the two is
    still the answer after the commit."""
    db = make_db()
    table = db.table("t")
    stats = db.columnar.stats
    s = db.session()
    s.begin()
    s.update("t", 1, {"score": 321})
    before = list(table.scan())
    s.commit()
    hits = stats.cache_hits
    after = list(table.scan())
    assert stats.cache_hits == hits + 1
    assert after == before == list(table.scan(use_columnar=False))
    assert [r["score"] for r in after] == [321]
