"""Fleet counters read their shards: ``FleetRollup.refresh`` adopts each
shard counter into ``fleet.<name>`` once, so the fleet count is the shard
sum at any time, and a fleet reset zeroes it in either order."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.obs.registry import Counter
from repro.obs.rollup import FleetRollup
from repro.schema import UINT32, UINT64, Schema
from repro.shard.database import ShardedDatabase

pytestmark = pytest.mark.trace


def _fleet():
    sdb = ShardedDatabase(2, mode="hash", seed=8)
    table = sdb.create_table("t", Schema.of(("k", UINT64), ("v", UINT32)))
    sdb.create_index("t", "pk", ("k",))
    rollup = sdb.enable_rollup()
    for i in range(20):
        table.insert({"k": i, "v": i})
    rollup.refresh()
    return sdb, table


def _shard_sum(sdb, name: str) -> int:
    return sum(
        sdb.shard_registry(i).counter(name).value for i in range(sdb.n_shards)
    )


def _fleet_counters(sdb) -> dict[str, int]:
    return {
        name: instrument.value
        for name, instrument in sdb.metrics.items()
        if name.startswith("fleet.") and isinstance(instrument, Counter)
    }


def test_fleet_counter_reads_the_shards_between_refreshes():
    sdb, table = _fleet()
    hit = sdb.metrics.counter("fleet.bufferpool.hit")
    at_refresh = hit.value
    for k in range(10):
        table.lookup("pk", k)
    assert hit.value == _shard_sum(sdb, "bufferpool.hit") > at_refresh


@pytest.mark.parametrize("parent_first", [True, False],
                         ids=["parent-then-shards", "shards-then-parent"])
def test_fleet_reset_reads_zero_in_either_order(parent_first):
    sdb, table = _fleet()
    for k in range(10):
        table.lookup("pk", k)
    registries = [sdb.shard_registry(i) for i in range(sdb.n_shards)]
    order = [sdb.metrics, *registries] if parent_first else [
        *registries, sdb.metrics
    ]
    for registry in order:
        registry.reset()
    counters = _fleet_counters(sdb)
    assert counters and set(counters.values()) == {0}, counters
    # and the fleet resumes with its shards, no refresh needed
    for k in range(5):
        table.lookup("pk", k)
    hit = sdb.metrics.counter("fleet.bufferpool.hit").value
    assert hit == _shard_sum(sdb, "bufferpool.hit") > 0


def test_a_late_shard_counter_joins_once():
    parent = MetricsRegistry()
    shards = [MetricsRegistry(), MetricsRegistry()]
    shards[0].counter("wal.bytes").inc(10)
    rollup = FleetRollup(registries=shards, target=parent)
    rollup.refresh()
    shards[1].counter("wal.late").inc(5)  # first created after a refresh
    assert parent.get("fleet.wal.late") is None
    rollup.refresh()
    assert parent.counter("fleet.wal.late").value == 5
    shards[0].counter("wal.late").inc(2)  # shard 0 creates it later still
    shards[1].counter("wal.late").inc(1)
    rollup.refresh()
    rollup.refresh()
    assert parent.counter("fleet.wal.late").value == 8
    assert parent.counter("fleet.wal.bytes").value == 10
    assert rollup.stats["wal.late"].per_shard == (2, 6)
