"""A log is decoded once per restart, and never by a live engine.

Every decode of a WAL record runs ``repro.wal.record._decode_body``.  It
is looked up as a module global by ``scan_wal``, so wrapping it counts
every scan, whoever imported ``scan_wal``.  The budget:

* ``recover`` decodes each durable record once (its open step feeds the
  replay and the rebuilt writer);
* ``db.session()`` decodes nothing: the session manager continues from
  the writer's high-water marks, on a live engine and a recovered one;
* ``recover_sharded`` decodes each record of each shard's log once (the
  migration intents come from the same scan as the replay).
"""

from __future__ import annotations

import struct
import zlib

import pytest

import repro.wal.record as record_module
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import INT64, UINT32, char, varchar
from repro.shard.database import ShardedDatabase
from repro.shard.recovery import recover_sharded
from repro.wal.record import RecordType, scan_wal
from repro.wal.replay import recover

SCHEMA = Schema.of(("id", UINT32), ("name", char(8)), ("score", UINT32))


@pytest.fixture
def decodes(monkeypatch):
    """A one-element list counting ``_decode_body`` calls."""
    count = [0]
    decode = record_module._decode_body

    def counted(*args):
        count[0] += 1
        return decode(*args)

    monkeypatch.setattr(record_module, "_decode_body", counted)
    return count


def _engine() -> Database:
    db = Database(seed=5, wal=True, wal_group_commit=4, page_size=512,
                  data_pool_pages=8)
    db.create_table("t", SCHEMA)
    db.create_index("t", "by_id", ("id",))
    table = db.table("t")
    for i in range(1, 41):
        table.insert({"id": i, "name": f"r{i}", "score": i})
    for i in range(1, 41, 3):
        table.update("by_id", i, {"score": i * 7})
    db.checkpoint()
    session = db.session()
    session.begin()
    session.update("t", 2, {"score": 2222})
    session.commit()
    loser = db.session()
    loser.begin()
    loser.insert("t", {"id": 99, "name": "f99", "score": 9})
    db.wal.flush()
    return db


def test_recover_decodes_each_record_once(decodes):
    db = _engine()
    log = bytes(db.wal.device.data)
    torn = log + log[-7:]  # a torn tail costs no decode of its own
    records = len(scan_wal(log).records)
    decodes[0] = 0
    recovered, report = recover(torn, page_size=512, data_pool_pages=8)
    assert report.records_scanned == records
    assert report.torn_tail
    assert decodes[0] == records


def test_session_decodes_nothing(decodes):
    fresh = Database(seed=5, wal=True, page_size=512, data_pool_pages=8)
    fresh.create_table("t", SCHEMA)
    fresh.create_index("t", "by_id", ("id",))
    for i in range(1, 41):
        fresh.table("t").insert({"id": i, "name": f"r{i}", "score": i})
    decodes[0] = 0
    fresh.session()  # a live engine's first session
    assert decodes[0] == 0

    recovered, _report = recover(_engine().wal, page_size=512,
                                 data_pool_pages=8)
    decodes[0] = 0
    session = recovered.session()  # a recovered engine's first session
    session.begin()
    assert session.txn_id == 3
    assert decodes[0] == 0


def test_recover_sharded_decodes_each_record_of_each_log_once(decodes):
    sdb = ShardedDatabase(2, mode="zipf", hot_fraction=0.1, wal=True,
                          wal_group_commit=1, seed=3)
    sdb.create_table(
        "a", Schema.of(("id", INT64), ("val", INT64), ("tag", varchar(8)))
    )
    sdb.create_index("a", "a_pk", ("id",))
    table = sdb.table("a")
    for i in range(60):
        table.insert({"id": i, "val": i, "tag": f"r{i}"})
    for _ in range(30):
        for key in range(1, 13):
            table.lookup("a_pk", key)
    sdb.rebalance()
    sdb.flush_wals()
    logs = [bytes(db.wal.device.data) for db in sdb.shards]
    records = sum(len(scan_wal(log).records) for log in logs)
    intents = sum(
        r.rtype is RecordType.SHARD_MIGRATE
        for log in logs for r in scan_wal(log).records
    )
    decodes[0] = 0
    recover_sharded(logs, mode="zipf", hot_fraction=0.1, seed=3)
    assert intents > 0
    assert decodes[0] == records


@pytest.mark.parametrize("byte", [0, 13, 200, 255])
def test_unknown_type_byte_ends_the_valid_prefix_before_its_frame(byte):
    db = _engine()
    log = bytes(db.wal.device.data)
    payload = struct.pack("<QB", 10_000, byte) + b"{}"
    frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    scan = scan_wal(log + frame + log[:64])
    assert scan.valid_bytes == len(log)
    assert scan.records == scan_wal(log).records
    assert scan.torn
