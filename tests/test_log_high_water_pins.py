"""A restarted engine continues its log's sequences: LSN, txn id, CSN.

A WAL-armed engine runs autocommit writes and three sessions (one
committed, one aborted, one left in flight), flushes, and is recovered
from its log bytes.  The restarted engine must hand out the next LSN,
the next transaction id and the next commit sequence number after
everything the log holds, so a second crash never meets two records,
two transactions or two commits under one number.  A live engine's
first session starts both sequences afresh.  A two-shard fleet's
recovery continues each shard's sequences and the facade's migration
``seq``, and journals its own ``recovery.begin`` before any shard's.

Every figure is a literal read off the engine; the assertions beside
each say why that figure is the right one.
"""

from __future__ import annotations

import pytest

from repro.faults.checker import check_database
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import INT64, UINT32, char, varchar
from repro.shard.database import ShardedDatabase
from repro.shard.recovery import recover_sharded
from repro.wal.record import RecordType, scan_wal
from repro.wal.replay import recover
from tests.test_txn_crash import rolled_back, undo_records

pytestmark = pytest.mark.txn

SCHEMA = Schema.of(("id", UINT32), ("name", char(8)), ("score", UINT32))
PAGE_SIZE = 512
POOL_PAGES = 8
SEED = 20261019
AUTOCOMMIT_ROWS = 12


def _engine() -> Database:
    db = Database(
        seed=SEED, wal=True, wal_group_commit=4,
        page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES,
    )
    db.create_table("t", SCHEMA)
    db.create_index("t", "by_id", ("id",))
    table = db.table("t")
    for i in range(1, AUTOCOMMIT_ROWS + 1):
        table.insert({"id": i, "name": f"r{i}", "score": i})
    table.update("by_id", 2, {"score": 22})
    table.delete("by_id", 3)
    return db


def _logged_engine(in_flight: bool = True) -> Database:
    """Autocommit writes, then a committed, an aborted and (unless told
    otherwise) an in-flight session, all flushed."""
    db = _engine()
    committed, aborted, loser = db.session(), db.session(), db.session()
    committed.begin()
    committed.update("t", 1, {"score": 111})
    committed.insert("t", {"id": 50, "name": "c50", "score": 500})
    committed.commit()
    aborted.begin()
    aborted.update("t", 4, {"score": 444})
    aborted.abort()
    if in_flight:
        loser.begin()
        loser.insert("t", {"id": 60, "name": "f60", "score": 600})
        loser.update("t", 5, {"score": 555})
    db.wal.flush()
    return db


def _recover(log: bytes):
    return recover(
        log, page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES, seed=SEED,
        group_commit_records=4,
    )


def _logged_marks(records) -> tuple[int, int]:
    """``(highest txn id, highest commit CSN)`` in ``records``."""
    txn = max((r.txn_id for r in records), default=0)
    csn = max(
        (r.csn for r in records if r.rtype is RecordType.TXN_COMMIT),
        default=0,
    )
    return txn, csn


def _rows(db) -> dict[int, tuple[str, int]]:
    return {r["id"]: (r["name"], r["score"]) for r in db.table("t").scan()}


@pytest.fixture(scope="module")
def log() -> bytes:
    return bytes(_logged_engine().wal.device.data)


def test_recovered_writer_continues_the_lsn_sequence(log):
    db, report = _recover(log)
    assert (report.max_lsn, rolled_back(db), undo_records(log, db)) == (
        27, 1, 2,
    )
    # Rolling the in-flight session back appends its two compensation
    # records and a TXN_ABORT after the survived log.
    assert db.wal.next_lsn == report.max_lsn + 1 + 2 + 1 == 31
    assert scan_wal(db.wal.device.data).max_lsn == db.wal.next_lsn - 1


def test_recovered_writer_with_no_loser_continues_at_max_lsn_plus_one():
    db = _logged_engine(in_flight=False)
    db2, report = _recover(bytes(db.wal.device.data))
    assert rolled_back(db2) == 0
    assert db2.wal.next_lsn == report.max_lsn + 1 == db.wal.next_lsn == 25


def test_recovered_manager_continues_txn_ids_and_csns(log):
    db, _report = _recover(log)
    txn, csn = _logged_marks(scan_wal(log).records)
    assert (txn, csn) == (3, 1)
    assert db.txn_manager.current_csn == csn == 1
    session = db.session()
    assert session.begin() == csn  # the snapshot reads the last commit
    assert session.txn_id == txn + 1 == 4


def test_commit_after_restart_outranks_every_logged_csn_and_recovers(log):
    db, _report = _recover(log)
    _txn, logged_csn = _logged_marks(scan_wal(log).records)
    session = db.session()
    session.begin()
    session.update("t", 6, {"score": 666})
    csn = session.commit(flush=True)
    assert csn == logged_csn + 1 == 2
    expected = _rows(db)
    assert expected[6] == ("r6", 666)
    assert 60 not in expected  # the in-flight insert was rolled back

    db2, report2 = _recover(bytes(db.wal.device.data))
    assert rolled_back(db2) == 0
    assert check_database(db2).ok
    assert _rows(db2) == expected
    assert db2.txn_manager.current_csn == 2
    again = db2.session()
    again.begin()
    assert again.txn_id == 5
    assert db2.wal.next_lsn == report2.max_lsn + 1 == db.wal.next_lsn == 34


def test_live_engine_starts_both_sequences_afresh():
    db = _engine()
    writes = AUTOCOMMIT_ROWS + 2
    assert db.wal.next_lsn == 2 + writes + 1 == 17  # two DDL records first
    session = db.session()
    assert db.txn_manager.current_csn == 0
    assert session.begin() == 0
    assert session.txn_id == 1
    session.update("t", 1, {"score": 9})
    assert session.commit() == 1


# -- a two-shard fleet -------------------------------------------------------

SHARD_SCHEMA = Schema.of(("id", INT64), ("val", INT64), ("tag", varchar(8)))
HOT = tuple(range(1, 13))


def _fleet_logs() -> list[bytes]:
    sdb = ShardedDatabase(
        2, mode="zipf", hot_fraction=0.1, wal=True, wal_group_commit=1,
        seed=3,
    )
    sdb.create_table("a", SHARD_SCHEMA)
    sdb.create_index("a", "a_pk", ("id",))
    table = sdb.table("a")
    for i in range(60):
        table.insert({"id": i, "val": i * 10, "tag": f"r{i}"})
    for _ in range(30):
        for key in HOT:
            table.lookup("a_pk", key)
    assert sdb.rebalance().keys_moved > 0
    sdb.flush_wals()
    return [bytes(db.wal.device.data) for db in sdb.shards]


def test_fleet_recovery_continues_each_shard_and_the_migration_seq():
    logs = _fleet_logs()
    scans = [scan_wal(log) for log in logs]
    intents = [
        r.meta for s in scans for r in s.records
        if r.rtype is RecordType.SHARD_MIGRATE
    ]
    assert len(intents) == 4
    assert [s.max_lsn for s in scans] == [36, 40]

    journal = EventJournal(registry=MetricsRegistry())
    sdb, _report = recover_sharded(
        logs, mode="zipf", hot_fraction=0.1, seed=3, journal=journal,
    )
    begin = [
        dict(e.payload) for e in journal.query(kind="recovery.begin")
        if e.shard is None
    ]
    assert [payload["intents"] for payload in begin] == [4]
    assert tuple(
        sdb.metrics.get(f"shard.recovery.{name}").value
        for name in ("duplicates_resolved", "relocations")
    ) == (0, 0)
    assert sdb._migration_seq == max(int(m["seq"]) for m in intents) + 1 == 5
    for i, shard in enumerate(sdb.shards):
        assert shard.wal.next_lsn == scans[i].max_lsn + 1
        assert shard.txn_manager.current_csn == 0
        session = shard.session()
        assert session.begin() == 0
        assert session.txn_id == 1
    first = next(iter(journal))
    assert (first.kind, first.shard) == ("recovery.begin", None)
    assert dict(first.payload) == {"shards": 2, "intents": 4}
    kinds = [(e.kind, e.shard) for e in journal]
    assert kinds[:4] == [
        ("recovery.begin", None),
        ("recovery.begin", 0),
        ("recovery.redo", 0),
        ("recovery.end", 0),
    ]
