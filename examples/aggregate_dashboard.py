"""§2.2 + §3.1 extensions: aggregate caching and online hot/cold management.

Run with::

    python examples/aggregate_dashboard.py

A "dashboard" workload: repeated range aggregates over the revision table
(answered from per-leaf aggregates cached in index free space, §2.2) while
an online manager follows a shifting point-lookup hot set (§3.1's
automated-policy direction).  Finishes by migrating the table to its
minimal physical schema (§4.1) and re-reporting sizes.
"""

from __future__ import annotations

from repro.btree.keycodec import UIntKey
from repro.core.encoding.migrate import migrate_table
from repro.core.hot_cold.manager import OnlineHotColdManager
from repro.core.hot_cold.partitioner import HotColdPartitionedTable
from repro.core.index_cache.agg_cache import AggregateCachingReader
from repro.query.database import Database
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.util.rng import DeterministicRng
from repro.workload.distributions import HotSetDistribution
from repro.workload.wikipedia import (
    REVISION_SCHEMA,
    REVISION_SCHEMA_DECLARED,
    WikipediaConfig,
    declared_revision_row,
    generate,
)

KC = UIntKey(4)


def aggregate_demo(data) -> None:
    db = Database(data_pool_pages=100_000, seed=0)
    table = db.create_table("revision", REVISION_SCHEMA)
    index = db.create_index("revision", "rev_pk", ("rev_id",))
    for row in data.revision_rows:
        table.insert(row)

    reader = AggregateCachingReader(
        index.tree, table.heap, REVISION_SCHEMA, "rev_len",
        rng=DeterministicRng(1),
    )
    count, total = reader.range_aggregate()
    cold_fetches = reader.stats.heap_fetches
    count2, total2 = reader.range_aggregate()
    warm_fetches = reader.stats.heap_fetches - cold_fetches
    assert (count, total) == (count2, total2)
    print(
        f"SUM(rev_len) over {count} rows = {total}\n"
        f"  cold pass: {cold_fetches} heap fetches\n"
        f"  warm pass: {warm_fetches} heap fetches "
        f"({reader.stats.leaves_from_cache} leaf aggregates from cache)"
    )


def manager_demo(data) -> None:
    db = Database(data_pool_pages=100_000)
    for side in ("hot", "cold"):
        db.create_table(f"revision_{side}", REVISION_SCHEMA, append_only=True)
        db.create_index(f"revision_{side}", f"rev_{side}", ("rev_id",))
    table = HotColdPartitionedTable(
        db.table("revision_hot"), db.table("revision_cold")
    )
    rev_ids = []
    for row in data.revision_rows:
        table.insert(row, hot=False)  # everything starts cold
        rev_ids.append(row["rev_id"])

    manager = OnlineHotColdManager(
        table, hot_capacity=len(rev_ids) // 20,
        ops_per_epoch=2_000, migration_budget=400, registry=db.metrics,
    )
    dist = HotSetDistribution(
        len(rev_ids), 0.05, 0.999, DeterministicRng(2)
    )
    for _ in range(12_000):
        manager.lookup(rev_ids[dist.sample()])
    rebalances = db.metrics.get("hotcold.rebalances").value
    print(
        f"\nonline manager: {rebalances} rebalances, hot "
        f"partition at {table.hot.num_rows} rows, hot-partition hit rate "
        f"{manager.hot_hit_rate():.1%}"
    )


def migration_demo(data) -> None:
    db = Database(data_pool_pages=100_000)
    table = db.create_table("revision_declared", REVISION_SCHEMA_DECLARED)
    for row in data.revision_rows[:2_000]:
        table.insert(declared_revision_row(row))
    target = HeapFile(BufferPool(SimulatedDisk(4096), 100_000))
    _, optimized, report = migrate_table(table, target)
    print(
        f"\nschema migration: {report.rows} rows, record "
        f"{report.old_record_bytes} B -> {report.new_record_bytes} B "
        f"({report.record_shrink_fraction:.0%} smaller), heap "
        f"{report.old_heap_pages} -> {report.new_heap_pages} pages "
        f"({report.page_shrink_factor:.1f}x)"
    )


def main() -> None:
    data = generate(
        WikipediaConfig(n_pages=400, revisions_per_page_mean=10, seed=0)
    )
    aggregate_demo(data)
    manager_demo(data)
    migration_demo(data)


if __name__ == "__main__":
    main()
