"""Snapshot-isolation semantics of `repro.txn` sessions (DESIGN.md §5g).

Runtime behaviour only — no crashes here (see test_txn_crash.py):
snapshot visibility, repeatable reads, first-writer-wins conflicts,
abort undo via compensation records, the deferred-delete commit
protocol, version-chain GC, and the `txn.*` instruments.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    DuplicateKeyError,
    TxnConflictError,
    TxnStateError,
    TypeMismatchError,
)
from repro.faults.checker import check_database
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char

pytestmark = pytest.mark.txn

SCHEMA = Schema.of(("id", UINT32), ("name", char(8)), ("score", UINT32))


def make_db(wal: bool = True, rows: int = 5) -> Database:
    db = Database(wal=wal)
    db.create_table("t", SCHEMA)
    db.create_index("t", "by_id", ("id",))
    table = db.table("t")
    for i in range(1, rows + 1):
        table.insert({"id": i, "name": f"r{i}", "score": i * 10})
    return db


# -- lifecycle ----------------------------------------------------------------


def test_begin_returns_snapshot_csn_and_requires_no_nesting():
    db = make_db()
    s = db.session()
    assert not s.in_txn
    csn = s.begin()
    assert csn == db.txn_manager.current_csn
    with pytest.raises(TxnStateError):
        s.begin()
    s.commit()
    assert not s.in_txn


def test_reads_outside_a_transaction_raise():
    db = make_db()
    s = db.session()
    with pytest.raises(TxnStateError):
        s.lookup("t", 1)
    with pytest.raises(TxnStateError):
        s.update("t", 1, {"score": 0})


def test_read_only_commit_allocates_no_csn_and_logs_nothing():
    db = make_db()
    db.wal.flush()
    log_before = len(db.wal.device.data)
    before = db.txn_manager.current_csn
    s = db.session()
    begin = s.begin()
    assert s.lookup("t", 1).values["score"] == 10
    assert s.commit() == begin
    db.wal.flush()
    assert db.txn_manager.current_csn == before
    assert len(db.wal.device.data) == log_before


def test_context_manager_commits_on_success_and_aborts_on_error():
    db = make_db()
    s = db.session()
    with s.transaction() as txn:
        txn.update("t", 1, {"score": 111})
    assert db.table("t").lookup("by_id", 1).values["score"] == 111
    with pytest.raises(RuntimeError):
        with s.transaction() as txn:
            txn.update("t", 2, {"score": 222})
            raise RuntimeError("boom")
    assert db.table("t").lookup("by_id", 2).values["score"] == 20
    assert not s.in_txn


# -- snapshot visibility ------------------------------------------------------


def test_uncommitted_writes_are_invisible_to_other_sessions():
    db = make_db()
    s1, s2 = db.session(), db.session()
    s1.begin(); s2.begin()
    s1.update("t", 1, {"score": 999})
    assert s1.lookup("t", 1).values["score"] == 999  # own write
    assert s2.lookup("t", 1).values["score"] == 10   # snapshot
    # The heap row is dirty, but a *new* snapshot still reads committed
    # state through the version chain.
    s3 = db.session(); s3.begin()
    assert s3.lookup("t", 1).values["score"] == 10
    s1.commit(); s2.commit(); s3.commit()


def test_repeatable_reads_across_a_concurrent_commit():
    db = make_db()
    reader, writer = db.session(), db.session()
    reader.begin()
    assert reader.lookup("t", 2).values["score"] == 20
    writer.begin()
    writer.update("t", 2, {"score": 777})
    writer.commit()
    # Still the snapshot value, no matter how often we re-read.
    assert reader.lookup("t", 2).values["score"] == 20
    assert reader.lookup("t", 2).values["score"] == 20
    reader.commit()
    late = db.session(); late.begin()
    assert late.lookup("t", 2).values["score"] == 777
    late.commit()


def test_snapshot_scan_overlays_writes_and_hides_concurrent_commits():
    db = make_db()
    s1, s2 = db.session(), db.session()
    s1.begin()
    s2.begin()
    s2.insert("t", {"id": 9, "name": "new", "score": 90})
    s2.delete("t", 4)
    s2.commit()
    # s1's snapshot predates s2's commit entirely.
    assert sorted(r["id"] for r in s1.scan("t")) == [1, 2, 3, 4, 5]
    s1.commit()
    s3 = db.session(); s3.begin()
    assert sorted(r["id"] for r in s3.scan("t")) == [1, 2, 3, 5, 9]
    s3.delete("t", 9)
    assert sorted(r["id"] for r in s3.scan("t")) == [1, 2, 3, 5]
    s3.abort()


# -- conflicts ----------------------------------------------------------------


def test_write_write_conflict_first_writer_wins():
    db = make_db()
    s1, s2 = db.session(), db.session()
    s1.begin(); s2.begin()
    s1.update("t", 3, {"score": 1})
    with pytest.raises(TxnConflictError):
        s2.update("t", 3, {"score": 2})
    assert not s2.in_txn          # loser auto-aborted
    assert s1.in_txn              # winner unaffected
    s1.commit()
    assert db.table("t").lookup("by_id", 3).values["score"] == 1


def test_stale_snapshot_write_conflicts_even_after_winner_committed():
    db = make_db()
    stale, fast = db.session(), db.session()
    stale.begin()
    fast.begin()
    fast.update("t", 1, {"score": 100})
    fast.commit()
    with pytest.raises(TxnConflictError):
        stale.update("t", 1, {"score": 200})
    assert not stale.in_txn


def test_conflict_rolls_back_the_losers_earlier_writes():
    db = make_db()
    s1, s2 = db.session(), db.session()
    s1.begin(); s2.begin()
    s2.update("t", 5, {"score": 555})     # will be undone
    s1.update("t", 1, {"score": 111})
    with pytest.raises(TxnConflictError):
        s2.update("t", 1, {"score": 222})
    s1.commit()
    table = db.table("t")
    assert table.lookup("by_id", 5).values["score"] == 50
    assert table.lookup("by_id", 1).values["score"] == 111
    assert check_database(db).ok


def test_deferred_delete_still_claims_and_conflicts():
    db = make_db()
    s1, s2 = db.session(), db.session()
    s1.begin(); s2.begin()
    assert s1.delete("t", 2)
    with pytest.raises(TxnConflictError):
        s2.update("t", 2, {"score": 0})
    s1.commit()


# -- abort / undo -------------------------------------------------------------


def test_abort_undoes_insert_update_delete():
    db = make_db()
    table = db.table("t")
    s = db.session()
    s.begin()
    s.insert("t", {"id": 7, "name": "tmp", "score": 70})
    s.update("t", 1, {"score": 12345})
    s.delete("t", 2)
    s.abort()
    assert table.lookup("by_id", 7).found is False
    assert table.lookup("by_id", 1).values["score"] == 10
    assert table.lookup("by_id", 2).values["score"] == 20
    assert check_database(db).ok


def test_abort_restores_state_seen_by_new_snapshots():
    db = make_db()
    s = db.session()
    s.begin()
    s.update("t", 3, {"score": 0})
    s.abort()
    late = db.session(); late.begin()
    assert late.lookup("t", 3).values["score"] == 30
    late.commit()


# -- deferred deletes ---------------------------------------------------------


def test_delete_defers_heap_removal_to_commit():
    db = make_db()
    table = db.table("t")
    s = db.session(); s.begin()
    assert s.delete("t", 3)
    assert s.lookup("t", 3).found is False        # own delete visible
    assert table.lookup("by_id", 3).found is True  # heap row still there
    s.commit()
    assert table.lookup("by_id", 3).found is False


def test_no_delete_record_logged_before_commit():
    from repro.wal.record import RecordType, scan_wal

    db = make_db()
    s = db.session(); s.begin()
    s.delete("t", 1)
    db.wal.flush()
    kinds = [r.rtype for r in scan_wal(db.wal.device.data).records]
    assert RecordType.DELETE not in kinds
    s.commit()
    db.wal.flush()
    records = scan_wal(db.wal.device.data).records
    kinds = [r.rtype for r in records]
    assert RecordType.DELETE in kinds
    # The commit protocol: the DELETE sits immediately before TXN_COMMIT.
    delete_at = max(i for i, k in enumerate(kinds) if k is RecordType.DELETE)
    assert kinds[delete_at + 1] is RecordType.TXN_COMMIT


def test_insert_after_own_delete_reuses_the_row_in_place():
    db = make_db()
    table = db.table("t")
    s = db.session(); s.begin()
    s.delete("t", 5)
    s.insert("t", {"id": 5, "name": "anew", "score": 500})
    assert s.lookup("t", 5).values["score"] == 500
    s.commit()
    assert table.lookup("by_id", 5).values["score"] == 500
    s = db.session(); s.begin()
    s.delete("t", 5)
    s.insert("t", {"id": 5, "name": "gone", "score": 9})
    s.abort()
    assert table.lookup("by_id", 5).values["score"] == 500
    assert check_database(db).ok


def test_insert_then_delete_nets_to_nothing():
    db = make_db()
    s = db.session(); s.begin()
    s.insert("t", {"id": 8, "name": "ghost", "score": 80})
    assert s.delete("t", 8)
    assert s.lookup("t", 8).found is False
    s.commit()
    assert db.table("t").lookup("by_id", 8).found is False
    assert check_database(db).ok


def test_duplicate_insert_raises_without_poisoning_the_session():
    db = make_db()
    s = db.session(); s.begin()
    with pytest.raises(DuplicateKeyError):
        s.insert("t", {"id": 1, "name": "dup", "score": 0})
    # The failed insert claimed nothing: another session may write key 1.
    s2 = db.session(); s2.begin()
    s2.update("t", 1, {"score": 11})
    s2.commit()
    s.commit()


def test_update_and_delete_of_absent_key_return_false():
    db = make_db()
    s = db.session(); s.begin()
    assert s.update("t", 404, {"score": 1}) is False
    assert s.delete("t", 404) is False
    assert s.lookup("t", 404).found is False
    s.commit()
    assert db.metrics.gauge("txn.tracked_keys").value == 0


# -- version-chain GC ---------------------------------------------------------


def test_version_chains_collapse_when_no_snapshot_needs_them():
    db = make_db()
    s = db.session()
    for key in (1, 2, 3):
        s.begin()
        s.update("t", key, {"score": key})
        s.commit()
    assert db.metrics.gauge("txn.tracked_keys").value == 0
    assert db.metrics.gauge("txn.active").value == 0


def test_old_versions_survive_while_a_snapshot_can_see_them():
    db = make_db()
    reader = db.session(); reader.begin()
    writer = db.session()
    writer.begin(); writer.update("t", 1, {"score": 1}); writer.commit()
    tracked = db.metrics.gauge("txn.tracked_keys")
    assert tracked.value == 1             # pinned by reader's snapshot
    assert reader.lookup("t", 1).values["score"] == 10
    reader.commit()
    assert tracked.value == 0             # collapsed after the pin lifted


# -- no-WAL and metrics -------------------------------------------------------


def test_sessions_work_without_a_wal():
    db = make_db(wal=False)
    s1, s2 = db.session(), db.session()
    s1.begin(); s2.begin()
    s1.update("t", 1, {"score": 999})
    assert s2.lookup("t", 1).values["score"] == 10
    with pytest.raises(TxnConflictError):
        s2.update("t", 1, {"score": 5})
    s1.delete("t", 2)
    s1.commit()
    table = db.table("t")
    assert table.lookup("by_id", 1).values["score"] == 999
    assert table.lookup("by_id", 2).found is False


def test_txn_counters_track_lifecycle():
    db = make_db()
    s1, s2 = db.session(), db.session()
    s1.begin(); s1.update("t", 1, {"score": 1}); s1.commit()
    s2.begin(); s2.update("t", 2, {"score": 2}); s2.abort()
    s1.begin()
    s2.begin()
    s1.update("t", 3, {"score": 3})
    with pytest.raises(TxnConflictError):
        s2.update("t", 3, {"score": 4})
    s1.commit()
    snap = db.metrics.snapshot()["txn"]
    assert snap["sessions"] == 2
    assert snap["begins"] == 4
    assert snap["commits"] == 2
    assert snap["aborts"] == 2           # explicit abort + conflict abort
    assert snap["conflicts"] == 1
    # One undo record: s2's explicit abort compensated its update (the
    # conflict abort had no prior writes to compensate).
    assert snap["undo_records"] == 1
    assert snap["active"] == 0


def test_pool_obs_reset_zeroes_txn_family():
    db = make_db()
    s = db.session()
    s.begin(); s.update("t", 1, {"score": 1}); s.commit()
    assert db.metrics.snapshot()["txn"]["commits"] == 1
    db.metrics.reset()
    snap = db.metrics.snapshot()["txn"]
    assert snap["commits"] == 0
    assert snap["begins"] == 0
    assert snap["sessions"] == 0
    # Gauges describe current state; the reset leaves them alone.
    assert snap["active"] == 0
    assert snap["tracked_keys"] == 0
    # And the manager keeps counting from zero.
    s.begin(); s.update("t", 2, {"score": 2}); s.commit()
    assert db.metrics.snapshot()["txn"]["commits"] == 1


def test_wrong_arity_key_is_a_type_mismatch_not_a_bare_error():
    db = make_db()
    with db.session().transaction() as s:
        with pytest.raises(TypeMismatchError, match="expects 1 part, got 2"):
            s.lookup("t", (1, 2))
        with pytest.raises(TypeMismatchError, match="expects 1 part, got 0"):
            s.lookup("t", ())
        assert s.lookup("t", (1,)).values == s.lookup("t", 1).values
