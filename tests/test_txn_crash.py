"""Crash-during-commit survival: the txn crash-point matrix (§5g).

A seeded workload of three interleaved sessions (commits, an abort, and
a transaction left in flight) produces one log; that log is cut at every
frame boundary and recovered onto a blank disk.  At every cut the
recovered engine must equal BOTH independent oracles from
`repro.txn.oracle`:

* `serial_fold` — committed transactions replayed logically in
  commit-CSN order (the serial schedule SI write sets must equal), and
* `committed_positional_fold` — the physical slot-by-slot fold that
  skips in-flight transactions.

Their three-way agreement at every crash point is the PR's acceptance
bar: no committed write lost, no uncommitted write surviving, and the
conflict rules admitting only serializable write interleavings.
"""

from __future__ import annotations

import pytest

from repro.faults.checker import check_database
from repro.query.database import Database
from repro.schema.record import unpack_record_map
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char
from repro.txn.oracle import (
    committed_positional_fold,
    serial_fold,
    txn_outcomes,
)
from repro.wal.record import HEAP_OP_TYPES, RecordType, frame_boundaries, scan_wal
from repro.wal.replay import recover

pytestmark = pytest.mark.txn

SCHEMA = Schema.of(("id", UINT32), ("name", char(8)), ("score", UINT32))
PAGE_SIZE = 512
POOL_PAGES = 8
SEED = 20260808


def fresh_db() -> Database:
    db = Database(
        seed=SEED, wal=True, wal_group_commit=4,
        page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES,
    )
    db.create_table("t", SCHEMA)
    db.create_index("t", "by_id", ("id",))
    table = db.table("t")
    for i in range(1, 9):
        table.insert({"id": i, "name": f"r{i}", "score": i * 10})
    return db


def rolled_back(db) -> int:
    """Loser transactions the recovery that built ``db`` rolled back."""
    counter = db.metrics.get("wal.replay.txn_rollbacks")
    return counter.value if counter is not None else 0


def undo_records(log: bytes, db) -> int:
    """Compensation records the recovery that built ``db`` from ``log``
    appended to it."""
    appended = scan_wal(db.wal.device.data).records[len(scan_wal(log).records):]
    return sum(r.rtype in HEAP_OP_TYPES for r in appended)


def build_txn_log() -> bytes:
    """Three sessions' worth of committed/aborted/in-flight history."""
    db = fresh_db()
    a, b, c = db.session(), db.session(), db.session()
    # Round 1: disjoint writers commit, one reader sees none of it.
    a.begin(); b.begin()
    a.update("t", 1, {"score": 111})
    b.insert("t", {"id": 20, "name": "b20", "score": 200})
    a.delete("t", 5)
    a.commit()
    b.update("t", 2, {"score": 222})
    b.commit(flush=True)
    # Round 2: an abort (compensation records) and more commits.
    c.begin()
    c.update("t", 3, {"score": 333})
    c.insert("t", {"id": 30, "name": "c30", "score": 300})
    c.abort()
    a.begin()
    a.update("t", 3, {"score": 3333})
    a.delete("t", 20)
    a.commit()
    # Round 3: interleaved commits, then leave b in flight at the tail.
    c.begin(); b.begin()
    c.insert("t", {"id": 31, "name": "c31", "score": 310})
    b.update("t", 6, {"score": 666})
    c.commit()
    b.insert("t", {"id": 40, "name": "b40", "score": 400})
    db.wal.flush()  # ops durable, TXN_COMMIT never logged: in flight
    return bytes(db.wal.device.data)


@pytest.fixture(scope="module")
def full_log() -> bytes:
    return build_txn_log()


@pytest.fixture(scope="module")
def boundaries(full_log) -> list[int]:
    return frame_boundaries(full_log)


def engine_rows(db) -> dict[int, tuple[str, int]]:
    try:
        table = db.table("t")
    except Exception:
        return {}
    return {r["id"]: (r["name"], r["score"]) for r in table.scan()}


def positional_by_key(records) -> dict[int, tuple[str, int]]:
    state = committed_positional_fold(records)
    out: dict[int, tuple[str, int]] = {}
    for (table, _pid, _slot), payload in state.items():
        if table != "t":
            continue
        row = unpack_record_map(SCHEMA, payload)
        out[row["id"]] = (row["name"], row["score"])
    return out


def serial_by_key(records) -> dict[int, tuple[str, int]]:
    rows = serial_fold(records, "t", SCHEMA, "id")
    return {k: (r["name"], r["score"]) for k, r in rows.items()}


def test_log_exercises_all_txn_outcomes(full_log):
    records = scan_wal(full_log).records
    committed, aborted, in_flight = txn_outcomes(records)
    assert len(committed) >= 4
    assert len(aborted) == 1
    assert len(in_flight) == 1
    kinds = {r.rtype for r in records}
    assert RecordType.TXN_BEGIN in kinds
    assert RecordType.TXN_COMMIT in kinds
    assert RecordType.TXN_ABORT in kinds


def test_matrix_is_not_tiny(boundaries):
    assert len(boundaries) >= 30


def test_every_boundary_cut_agrees_with_both_oracles(full_log, boundaries):
    distinct = set()
    rollback_seen = 0
    for cut in boundaries:
        prefix = full_log[:cut]
        records = scan_wal(prefix).records
        db, _ = recover(
            prefix, page_size=PAGE_SIZE,
            data_pool_pages=POOL_PAGES, seed=SEED,
        )
        rollback_seen += rolled_back(db)
        got = engine_rows(db)
        assert got == serial_by_key(records), f"serial fold @ {cut}"
        assert got == positional_by_key(records), f"positional fold @ {cut}"
        if got:
            check = check_database(db)
            assert check.ok, (cut, check.problems)
        distinct.add(frozenset(got.items()))
    assert len(distinct) > 10      # the matrix walks through real states
    assert rollback_seen > 0       # some cuts stranded in-flight txns


def test_crash_between_commit_record_and_data_flush():
    """The commit frame IS the durability point: no page ever flushed,
    yet the committed transaction's insert/update/delete all survive."""
    db = fresh_db()
    s = db.session(); s.begin()
    s.insert("t", {"id": 50, "name": "keep", "score": 500})
    s.update("t", 1, {"score": 11})
    s.delete("t", 2)
    s.commit(flush=True)
    # Recover from the log alone — the "disk" dies with every data page.
    db2, _ = recover(
        db.wal.device.data, page_size=PAGE_SIZE,
        data_pool_pages=POOL_PAGES, seed=SEED,
    )
    assert rolled_back(db2) == 0
    table = db2.table("t")
    assert table.lookup("by_id", 50).values["score"] == 500
    assert table.lookup("by_id", 1).values["score"] == 11
    assert table.lookup("by_id", 2).found is False
    assert check_database(db2).ok


def test_ops_without_commit_record_roll_back():
    db = fresh_db()
    s = db.session(); s.begin()
    s.insert("t", {"id": 50, "name": "lose", "score": 500})
    s.update("t", 1, {"score": 11})
    db.wal.flush()                     # ops durable, commit never logged
    db2, _ = recover(
        db.wal.device.data, page_size=PAGE_SIZE,
        data_pool_pages=POOL_PAGES, seed=SEED,
    )
    assert rolled_back(db2) == 1
    assert undo_records(db.wal.device.data, db2) == 2
    table = db2.table("t")
    assert table.lookup("by_id", 50).found is False
    assert table.lookup("by_id", 1).values["score"] == 10
    assert check_database(db2).ok
    # The rollback is durable: the new log ends with the loser's
    # compensation records and TXN_ABORT.
    _, aborted, in_flight = txn_outcomes(
        scan_wal(db2.wal.device.data).records
    )
    assert not in_flight and len(aborted) == 1


def test_deletes_stranded_without_commit_record_roll_back():
    """The deferred-delete protocol's torn-tail case: DELETE records in
    the durable prefix, TXN_COMMIT cut away.  The compensation INSERT
    targets the original slot — legal exactly because nothing can follow
    those deletes in the log."""
    db = fresh_db()
    s = db.session(); s.begin()
    s.delete("t", 3)
    s.delete("t", 7)
    s.commit(flush=True)
    log = bytes(db.wal.device.data)
    records = scan_wal(log).records
    bounds = frame_boundaries(log)
    commit_at = max(
        i for i, r in enumerate(records) if r.rtype is RecordType.TXN_COMMIT
    )
    # Cut between the last DELETE and the TXN_COMMIT frame.
    prefix = log[: bounds[commit_at - 1]]
    db2, _ = recover(
        prefix, page_size=PAGE_SIZE,
        data_pool_pages=POOL_PAGES, seed=SEED,
    )
    assert rolled_back(db2) == 1
    table = db2.table("t")
    assert table.lookup("by_id", 3).values["score"] == 30
    assert table.lookup("by_id", 7).values["score"] == 70
    assert check_database(db2).ok
    # One boundary later, the commit frame is in: deletes are final.
    db3, _ = recover(
        log[: bounds[commit_at]], page_size=PAGE_SIZE,
        data_pool_pages=POOL_PAGES, seed=SEED,
    )
    assert db3.table("t").lookup("by_id", 3).found is False
    assert db3.table("t").lookup("by_id", 7).found is False


def test_crash_mid_abort_converges_at_every_cut():
    """Every prefix of (ops + partial compensation) recovers to the
    pre-transaction state: undo of half-applied undo is well-defined."""
    db = fresh_db()
    baseline = {
        r["id"]: (r["name"], r["score"]) for r in db.table("t").scan()
    }
    s = db.session(); s.begin()
    s.update("t", 1, {"score": 1})
    s.update("t", 4, {"score": 4})
    s.insert("t", {"id": 60, "name": "gone", "score": 600})
    db.wal.flush()
    ops_end = len(db.wal.device.data)
    s.abort()
    db.wal.flush()
    log = bytes(db.wal.device.data)
    cuts = [b for b in frame_boundaries(log) if b >= ops_end]
    assert len(cuts) >= 4          # comps + TXN_ABORT all cut-separable
    for cut in cuts:
        db2, _ = recover(
            log[:cut], page_size=PAGE_SIZE,
            data_pool_pages=POOL_PAGES, seed=SEED,
        )
        assert engine_rows(db2) == baseline, f"mid-abort cut @ {cut}"
        assert check_database(db2).ok


def test_recovery_is_idempotent_across_repeated_crashes(full_log):
    """recover → crash again with no new writes → recover: the second
    pass must change nothing (no double-apply, no fresh rollbacks)."""
    db1, _ = recover(
        full_log, page_size=PAGE_SIZE,
        data_pool_pages=POOL_PAGES, seed=SEED,
    )
    assert rolled_back(db1) >= 1
    state1 = engine_rows(db1)
    log1 = bytes(db1.wal.device.data)
    db2, _ = recover(
        log1, page_size=PAGE_SIZE,
        data_pool_pages=POOL_PAGES, seed=SEED,
    )
    assert rolled_back(db2) == 0
    assert undo_records(log1, db2) == 0
    assert engine_rows(db2) == state1
    assert bytes(db2.wal.device.data) == log1   # nothing appended
    assert check_database(db2).ok
