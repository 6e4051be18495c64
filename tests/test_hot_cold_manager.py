"""OnlineHotColdManager: automated hot-set tracking and migration."""

import pytest

from repro.core.hot_cold.manager import OnlineHotColdManager
from repro.core.hot_cold.partitioner import HotColdPartitionedTable
from repro.errors import WorkloadError
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char
from repro.util.rng import DeterministicRng
from repro.workload.distributions import HotSetDistribution

SCHEMA = Schema.of(("item_id", UINT32), ("body", char(16)))


def build(n=400, hot_capacity=40, ops_per_epoch=1000, budget=100):
    db = Database(page_size=512, data_pool_pages=1 << 20)
    for side in ("hot", "cold"):
        db.create_table(side, SCHEMA, append_only=True)
        db.create_index(side, f"{side}_pk", ("item_id",))
    table = HotColdPartitionedTable(db.table("hot"), db.table("cold"))
    for i in range(n):
        table.insert({"item_id": i, "body": f"b{i}"}, hot=False)  # all cold
    manager = OnlineHotColdManager(
        table, hot_capacity=hot_capacity, ops_per_epoch=ops_per_epoch,
        migration_budget=budget, registry=db.metrics,
    )
    return manager, db.metrics


def count(registry, name: str) -> float:
    """The ``hotcold.<name>`` counter or gauge the manager keeps."""
    return registry.get(f"hotcold.{name}").value


def test_lookups_return_rows():
    manager, _registry = build()
    assert manager.lookup(7) == {"item_id": 7, "body": "b7"}
    assert manager.lookup(99999) is None


def test_rebalance_promotes_hot_keys():
    manager, registry = build(hot_capacity=10, ops_per_epoch=10**9)
    for _ in range(50):
        for key in range(10):
            manager.lookup(key)
    manager.rebalance()
    assert count(registry, "promotions") == 10
    for key in range(10):
        assert manager.table.is_hot(key)
    assert count(registry, "hot_rows") == 10


def test_rebalance_demotes_cooled_keys():
    manager, _registry = build(hot_capacity=5, ops_per_epoch=10**9, budget=50)
    for key in range(5):
        for _ in range(20):
            manager.lookup(key)
    manager.rebalance()
    assert manager.table.hot.num_rows == 5
    # the workload shifts entirely to new keys
    for key in range(100, 105):
        for _ in range(200):
            manager.lookup(key)
    manager.rebalance()
    manager.rebalance()  # decay lets old keys fall out over epochs
    for key in range(100, 105):
        assert manager.table.is_hot(key)
    assert manager.table.hot.num_rows <= 10


def test_migration_budget_bounds_moves():
    manager, registry = build(hot_capacity=100, ops_per_epoch=10**9, budget=7)
    for key in range(100):
        manager.lookup(key)
    manager.rebalance()
    assert count(registry, "promotions") + count(registry, "demotions") <= 7


def test_automatic_rebalance_after_epoch():
    manager, registry = build(hot_capacity=20, ops_per_epoch=300)
    dist = HotSetDistribution(400, 0.05, 0.99, DeterministicRng(1))
    for _ in range(2000):
        manager.lookup(dist.sample())
    assert count(registry, "rebalances") >= 5
    # after convergence, most lookups are served hot
    before = manager.table.hot_lookups + manager.table.cold_lookups
    manager.table.hot_lookups = 0
    manager.table.cold_lookups = 0
    for _ in range(2000):
        manager.lookup(dist.sample())
    assert manager.hot_hit_rate() > 0.8


def test_validation():
    manager, _registry = build()
    with pytest.raises(WorkloadError):
        OnlineHotColdManager(manager.table, hot_capacity=0)
    with pytest.raises(WorkloadError):
        OnlineHotColdManager(manager.table, hot_capacity=5, ops_per_epoch=0)
