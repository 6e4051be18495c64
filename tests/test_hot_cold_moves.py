"""The §3 layouts over catalog tables: the move contract and the refusals.

A hot/cold move is ``dst.insert`` then ``src.delete``, each failure-atomic
on its own.  A failure in the first leaves both sides as they were; a
failure in the second leaves the row in both, where the hot-first lookup
still reads it, and a retry of the same move finishes it.  Every refusal
of a layout comes from its constructor, before any row is written.
"""

from __future__ import annotations

import pytest

from repro.core.hot_cold.partitioner import HotColdPartitionedTable
from repro.core.hot_cold.vertical import VerticallyPartitionedTable
from repro.errors import QueryError, SchemaError, StorageError
from repro.faults.checker import check_database
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char
from repro.wal.record import RecordType, scan_wal

SCHEMA = Schema.of(("rev_id", UINT32), ("body", char(20)))


def pair(db: Database, hot_key=("rev_id",)) -> HotColdPartitionedTable:
    for side, key in (("hot", hot_key), ("cold", ("rev_id",))):
        db.create_table(side, SCHEMA, append_only=True)
        db.create_index(side, f"{side}_pk", key)
    return HotColdPartitionedTable(db.table("hot"), db.table("cold"))


def row(i):
    return {"rev_id": i, "body": f"rev-{i}"}


def wal_pair() -> tuple[Database, HotColdPartitionedTable]:
    db = Database(page_size=512, data_pool_pages=64, wal=True)
    return db, pair(db)


def _raise(*args, **kwargs):
    raise StorageError("injected")


# -- the move contract ---------------------------------------------------------


@pytest.mark.parametrize("direction", ["demote", "promote"])
def test_failed_destination_insert_leaves_both_sides_unchanged(
    monkeypatch, direction
):
    db, layout = wal_pair()
    demote = direction == "demote"
    src, dst = (layout.hot, layout.cold) if demote else (layout.cold, layout.hot)
    layout.insert(row(1), hot=demote)
    layout.insert(row(2), hot=not demote)  # dst is not empty
    dst_pk = dst.index(dst.identity_index_name)
    before = (dst.num_rows, dst_pk.tree.num_entries, dst.heap.size_bytes)
    monkeypatch.setattr(dst_pk, "insert_key", _raise)
    with pytest.raises(StorageError):
        getattr(layout, direction)(1)
    monkeypatch.undo()
    assert (dst.num_rows, dst_pk.tree.num_entries, dst.heap.size_bytes) == before
    assert not dst.lookup(dst.identity_index_name, 1).found
    assert src.lookup(src.identity_index_name, 1).values == row(1)
    assert layout.lookup(1) == row(1)
    assert (layout.demotions, layout.promotions) == (0, 0)
    assert check_database(db).ok
    assert getattr(layout, direction)(1)
    assert layout.is_hot(1) is not demote
    assert layout.lookup(1) == row(1)


@pytest.mark.parametrize("direction", ["demote", "promote"])
def test_failed_source_delete_stays_readable_and_a_retry_finishes(
    monkeypatch, direction
):
    db, layout = wal_pair()
    demote = direction == "demote"
    src, dst = (layout.hot, layout.cold) if demote else (layout.cold, layout.hot)
    layout.insert(row(1), hot=demote)
    monkeypatch.setattr(src.heap, "delete", _raise)
    with pytest.raises(StorageError):
        getattr(layout, direction)(1)
    monkeypatch.undo()
    # The copy committed and the source survived: the row is in both,
    # and the hot-first lookup reads it either way.
    assert src.num_rows == dst.num_rows == 1
    assert layout.lookup(1) == row(1)
    assert check_database(db).ok
    assert getattr(layout, direction)(1)
    assert (src.num_rows, dst.num_rows) == (0, 1)
    assert dst.lookup(dst.identity_index_name, 1).values == row(1)
    assert not src.lookup(src.identity_index_name, 1).found
    assert layout.lookup(1) == row(1)
    assert check_database(db).ok


def test_a_move_is_logged_once_under_the_source_name():
    db, layout = wal_pair()
    layout.insert(row(1), hot=True)
    assert layout.demote(1) and layout.promote(1)
    db.wal.flush()
    moves = [
        r.table for r in scan_wal(db.wal.device.data).records
        if r.rtype is RecordType.HOT_COLD_MOVE
    ]
    assert moves == ["hot", "cold"]


# -- refusals --------------------------------------------------------------------


def test_hot_cold_sides_with_different_identity_keys_are_refused():
    db = Database(page_size=512, data_pool_pages=64)
    with pytest.raises(QueryError, match="identity key"):
        pair(db, hot_key=("body",))
    assert db.table("hot").num_rows == db.table("cold").num_rows == 0


def test_hot_cold_sides_on_different_logs_are_refused():
    logged = Database(page_size=512, data_pool_pages=64, wal=True)
    unlogged = Database(page_size=512, data_pool_pages=64)
    for db in (logged, unlogged):
        db.create_table("t", SCHEMA)
        db.create_index("t", "t_pk", ("rev_id",))
    with pytest.raises(QueryError, match="WAL"):
        HotColdPartitionedTable(logged.table("t"), unlogged.table("t"))
    assert logged.table("t").num_rows == unlogged.table("t").num_rows == 0


def test_fragments_with_different_identity_keys_are_refused():
    schema = Schema.of(("id", UINT32), ("a", UINT32), ("b", UINT32))
    db = Database(page_size=512, data_pool_pages=64)
    db.create_table("fa", schema.project(["id", "a"]))
    db.create_index("fa", "fa_pk", ("id",))
    db.create_table("fb", schema.project(["id", "b"]))
    db.create_index("fb", "fb_pk", ("b",))
    with pytest.raises(QueryError, match="not keyed by"):
        VerticallyPartitionedTable(schema, (db.table("fa"), db.table("fb")))
    assert db.table("fa").num_rows == db.table("fb").num_rows == 0


def test_a_split_without_fragments_is_refused():
    with pytest.raises(SchemaError, match="at least one fragment"):
        VerticallyPartitionedTable(SCHEMA, ())
