"""HotColdPartitionedTable: two-partition lookups and migrations."""

import pytest

from repro.core.hot_cold.forwarding import ForwardingTable
from repro.core.hot_cold.partitioner import HotColdPartitionedTable, identity_index
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char

SCHEMA = Schema.of(("rev_id", UINT32), ("body", char(20)))


def build(forwarding=None):
    db = Database(page_size=512, data_pool_pages=1 << 20)
    for side in ("hot", "cold"):
        db.create_table(side, SCHEMA, append_only=True)
        db.create_index(side, f"{side}_pk", ("rev_id",))
    return HotColdPartitionedTable(
        db.table("hot"), db.table("cold"), forwarding=forwarding
    )


def row(i):
    return {"rev_id": i, "body": f"rev-{i}"}


def test_insert_and_lookup_both_partitions():
    table = build()
    table.insert(row(1), hot=True)
    table.insert(row(2), hot=False)
    assert table.lookup(1) == {"rev_id": 1, "body": "rev-1"}
    assert table.lookup(2) == {"rev_id": 2, "body": "rev-2"}
    assert table.lookup(3) is None
    assert table.hot_lookups == 1
    assert table.cold_lookups == 1


def test_lookup_projection():
    table = build()
    table.insert(row(5))
    assert table.lookup(5, ("body",)) == {"body": "rev-5"}


def test_is_hot():
    table = build()
    table.insert(row(1), hot=True)
    table.insert(row(2), hot=False)
    assert table.is_hot(1)
    assert not table.is_hot(2)


def test_demote_moves_row_and_keeps_data():
    table = build()
    table.insert(row(1), hot=True)
    assert table.demote(1)
    assert not table.is_hot(1)
    assert table.lookup(1) == {"rev_id": 1, "body": "rev-1"}
    assert table.demotions == 1


def test_promote_round_trip():
    table = build()
    table.insert(row(1), hot=False)
    assert table.promote(1)
    assert table.is_hot(1)
    assert table.lookup(1)["body"] == "rev-1"


def test_move_missing_returns_false():
    table = build()
    assert not table.demote(42)
    assert not table.promote(42)


def test_stats_and_index_shrink_factor():
    table = build()
    for i in range(50):
        table.insert(row(i), hot=(i < 5))
    stats = table.stats()
    assert stats.hot_rows == 5
    assert stats.cold_rows == 45
    assert stats.hot_index_bytes > 0
    # a combined index is at least the hot one: shrink factor >= 1
    cold_index_bytes = identity_index(table.cold).tree.size_bytes
    assert stats.hot_index_bytes + cold_index_bytes >= stats.hot_index_bytes


def test_forwarding_recorded_on_moves():
    fwd = ForwardingTable()
    table = build(forwarding=fwd)
    table.insert(row(1), hot=True)
    table.demote(1)
    assert fwd.size == 1


def test_revision_policy_pattern():
    """The §3.1 Wikipedia policy: a new revision demotes its predecessor."""
    table = build()
    latest = {}
    for rev_id, page in [(1, "A"), (2, "B"), (3, "A"), (4, "A"), (5, "B")]:
        if page in latest:
            table.demote(latest[page])
        table.insert(row(rev_id), hot=True)
        latest[page] = rev_id
    assert table.is_hot(4) and table.is_hot(5)
    assert not table.is_hot(1) and not table.is_hot(3)
    stats = table.stats()
    assert stats.hot_rows == 2
    assert stats.cold_rows == 3
