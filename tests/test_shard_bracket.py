"""The facade's one router call and the shard tables its ops reach.

``ShardRouter.shard_of`` counts the route, places the key, feeds the zipf
tracker and, with tracing armed, queues the hop, in one call; every
:class:`ShardedTable` op reaches its shard's :class:`Table` by index,
with no catalog walk: the list is resolved when the facade creates or
recovers the table.  A fan-out is counted once, as the width histogram's
count, however many facades share a registry and in whichever order a
reset zeroes it.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.query.predicates import ColumnRange
from repro.schema.catalog import Catalog
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64
from repro.shard.database import ShardedDatabase
from repro.shard.recovery import recover_sharded
from repro.shard.router import ShardRouter

pytestmark = pytest.mark.shard

SCHEMA = Schema.of(("id", UINT64), ("n", UINT32))
KEYS = [5, 9, 5, "x", (1, "y"), 5, 12, 9, 40, 41]


def _fleet(wal: bool = False, metrics=None) -> tuple[ShardedDatabase, object]:
    sdb = ShardedDatabase(3, mode="zipf", wal=wal, metrics=metrics or MetricsRegistry())
    table = sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    return sdb, table


@pytest.mark.parametrize("mode", ["hash", "zipf"])
def test_a_route_counts_places_feeds_the_tracker_and_queues_the_hop(mode):
    one = ShardRouter(3, mode=mode)
    two = ShardRouter(3, mode=mode)
    one.apply_move(9, (one.placement(9) + 1) % 3)
    two.apply_move(9, (two.placement(9) + 1) % 3)
    for key in KEYS:
        assert one.shard_of(key) == two.placement(key)
        two.record_access(key)
    assert one.routes == len(KEYS)
    if mode == "zipf":
        assert [one.tracker.count_of(k) for k in KEYS] == [
            two.tracker.count_of(k) for k in KEYS
        ]
    assert one.hops is None  # nothing queued while tracing is off
    one.hops = []
    assert [one.shard_of(k) for k in KEYS[:3]] == one.hops


def test_shard_tables_are_reached_without_a_catalog_walk(monkeypatch):
    sdb, table = _fleet(wal=True)
    for i in range(200):
        table.insert({"id": i, "n": i % 7})
    for i in range(0, 200, 3):
        table.lookup("pk", i)
    walks = []
    real = Catalog.table
    monkeypatch.setattr(
        Catalog, "table", lambda self, name: walks.append(name) or real(self, name)
    )
    table.insert({"id": 500, "n": 1})
    assert table.lookup("pk", 500).found
    assert table.update("pk", 7, {"n": 3})
    assert table.delete("pk", 8)
    assert len(table.lookup_many("pk", [1, 2, 3, 8, 999])) == 5
    assert len(list(table.scan(ColumnRange("n", 0, 3), ("id",)))) > 0
    assert table.aggregate([("count", None)])["count"] == 200
    assert sdb.rebalance().keys_moved > 0
    assert walks == []


def test_a_recreated_table_reaches_its_new_shard_tables():
    """Shards without a WAL may drop a table; the facade's ``create_table``
    then builds a new sharded table whose ops reach the new shard tables."""
    sdb, table = _fleet()
    for i in range(60):
        table.insert({"id": i, "n": 1})
    for db in sdb.shards:
        db.drop_table("t")
    again = sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    assert sdb.table("t") is again
    assert again.num_rows == 0
    for i in range(40, 100):
        again.insert({"id": i, "n": 2})
        again.lookup("pk", i)
    assert again.lookup("pk", 10).found is False
    assert again.lookup("pk", 70).values["n"] == 2
    assert [again.shard_table(i) for i in range(3)] == [
        db.table("t") for db in sdb.shards
    ]
    sdb.rebalance()
    assert sorted(r["id"] for r in again.scan(project=("id",))) == list(range(40, 100))
    assert sdb.check().ok


def test_a_recovered_fleet_reaches_its_recovered_tables():
    sdb, table = _fleet(wal=True)
    for i in range(120):
        table.insert({"id": i, "n": i % 5})
    sdb.flush_wals()
    back, _ = recover_sharded([db.wal for db in sdb.shards], mode="zipf")
    again = back.table("t")
    assert [again.shard_table(i) for i in range(3)] == [
        db.table("t") for db in back.shards
    ]
    assert all(again.lookup("pk", i).values["n"] == i % 5 for i in range(120))
    assert again.update("pk", 3, {"n": 9})
    again.insert({"id": 1000, "n": 1})
    assert again.aggregate([("count", None), ("sum", "n")]) == {
        "count": 121, "sum(n)": sum(i % 5 for i in range(120)) - 3 + 9 + 1,
    }


@pytest.mark.parametrize("counter_first", [False, True])
def test_a_fan_out_is_counted_once_on_a_shared_registry(counter_first):
    metrics = MetricsRegistry()
    if counter_first:  # the reset then zeroes the counter before the histogram
        metrics.counter("shard.fanout.ops")
    fleets = [_fleet(metrics=metrics) for _ in range(2)]
    widths = metrics.get("shard.fanout.shards")
    ops = metrics.get("shard.fanout.ops")
    for _, table in fleets:
        for i in range(10):
            table.insert({"id": i, "n": 0})
        table.aggregate([("count", None)])
    assert ops.value == widths.count == 22
    assert widths.sum == 2 * (10 + 3)
    metrics.reset()
    assert (ops.value, widths.count) == (0, 0)
    fleets[0][1].lookup("pk", 1)
    assert (ops.value, widths.count) == (1, 1)
