"""Figure 3: per-query cost under access-based clustering and partitioning.

Paper setup (§3.1): Wikipedia's revision table; 99.9% of lookups hit the
~5% of tuples that are each page's latest revision; those hot tuples are
scattered roughly one per heap page.  Four configurations:

* **0%** — the table as ingested (baseline),
* **54% / 100%** — that fraction of hot tuples relocated to the tail by
  the delete+append clustering operator,
* **Partition** — hot tuples in their own partition with their own
  (small) index.

Claims to reproduce (shape, not absolute ms): clustering 54% ≈ 1.8×,
clustering 100% ≈ 2.15×, partitioning ≈ 8.4×, and the hot-partition index
~19× smaller than the full index (the paper's 27.1 GB → 1.4 GB).

This experiment runs the *real engine*: each configuration is a
:class:`~repro.query.database.Database` with one cost-hooked buffer pool
sized well below the full working set, and the partitioned one is a
hot/cold layout over two of its tables, so the factors emerge from
page-touch behaviour rather than being painted on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hot_cold.cluster import cluster_hot_tuples
from repro.core.hot_cold.partitioner import HotColdPartitionedTable
from repro.experiments.runner import print_table
from repro.query.database import Database
from repro.query.table import PlainIndex, Table
from repro.sim.cost_model import CostModel, CostPreset, END_TO_END_PRESET
from repro.util.rng import DeterministicRng
from repro.util.units import NS_PER_MS
from repro.workload.wikipedia import (
    REVISION_SCHEMA,
    WikipediaConfig,
    WikipediaData,
    generate,
    revision_lookup_trace,
)

_PROJECT = ("rev_id", "rev_page", "rev_text_id", "rev_len")


@dataclass(frozen=True)
class Fig3Row:
    """One bar of the figure."""

    label: str
    cost_ms_per_lookup: float
    disk_reads_per_lookup: float
    index_bytes: int          # the index the hot path descends
    speedup: float            # vs the 0% baseline


@dataclass(frozen=True)
class Fig3Config:
    """Scale knobs; defaults keep a full run under ~2 minutes."""

    n_pages: int = 1_500
    revisions_per_page_mean: int = 20
    n_lookups: int = 12_000
    warmup_lookups: int = 4_000
    pool_pages: int = 96
    page_size: int = 4_096
    seed: int = 0


def _build_flat(
    data: WikipediaData, config: Fig3Config, cost: CostModel
) -> tuple[Table, PlainIndex, Database]:
    """The unpartitioned revision table, ingested in temporal order."""
    db = Database(config.page_size, config.pool_pages, cost_model=cost)
    table = db.create_table("revision", REVISION_SCHEMA, append_only=True)
    index = db.create_index("revision", "rev_pk", ("rev_id",))
    for row in data.revision_rows:
        table.insert(row)
    return table, index, db


def _build_partitioned(
    data: WikipediaData, config: Fig3Config, cost: CostModel
) -> tuple[HotColdPartitionedTable, Database]:
    """Hot/cold partitioned layout: latest revisions get their own
    partition and index."""
    db = Database(config.page_size, config.pool_pages, cost_model=cost)
    for side in ("hot", "cold"):
        db.create_table(f"revision_{side}", REVISION_SCHEMA, append_only=True)
        db.create_index(f"revision_{side}", f"rev_{side}", ("rev_id",))
    table = HotColdPartitionedTable(
        db.table("revision_hot"), db.table("revision_cold")
    )
    hot_ids = data.hot_rev_ids
    for row in data.revision_rows:
        table.insert(row, hot=row["rev_id"] in hot_ids)
    return table, db


def _measure(
    lookup, trace: list[int], warmup: int, cost: CostModel, db: Database
) -> tuple[float, float]:
    """Warm up, then measure simulated cost and disk reads per lookup."""
    for rev_id in trace[:warmup]:
        lookup(rev_id)
    cost.reset()
    reads_before = db.disk.reads
    measured = trace[warmup:]
    for rev_id in measured:
        cost.on_query()
        lookup(rev_id)
    n = len(measured)
    return (
        cost.now_ns / n / NS_PER_MS,
        (db.disk.reads - reads_before) / n,
    )


def run(
    config: Fig3Config = Fig3Config(),
    preset: CostPreset = END_TO_END_PRESET,
    cluster_fractions: tuple[float, ...] = (0.0, 0.54, 1.0),
) -> list[Fig3Row]:
    """Build and measure every configuration; rows in figure order."""
    data = generate(
        WikipediaConfig(
            n_pages=config.n_pages,
            revisions_per_page_mean=config.revisions_per_page_mean,
            seed=config.seed,
        )
    )
    total = config.warmup_lookups + config.n_lookups
    trace = revision_lookup_trace(data, total, seed=config.seed + 17)
    rows: list[Fig3Row] = []
    baseline_cost: float | None = None

    for fraction in cluster_fractions:
        cost = CostModel(preset)
        table, index, db = _build_flat(data, config, cost)
        if fraction > 0:
            hot_keys = [
                index.encode_key(rev_id) for rev_id in sorted(data.hot_rev_ids)
            ]
            cluster_hot_tuples(
                table.heap, index.tree, hot_keys, fraction,
                rng=DeterministicRng(config.seed + 23),
            )
        cost_ms, reads = _measure(
            lambda rid: table.lookup("rev_pk", rid, _PROJECT),
            trace, config.warmup_lookups, cost, db,
        )
        if baseline_cost is None:
            baseline_cost = cost_ms
        rows.append(
            Fig3Row(
                label=f"{fraction:.0%} clustered",
                cost_ms_per_lookup=cost_ms,
                disk_reads_per_lookup=reads,
                index_bytes=index.tree.size_bytes,
                speedup=baseline_cost / cost_ms if cost_ms else float("inf"),
            )
        )

    cost = CostModel(preset)
    part_table, db = _build_partitioned(data, config, cost)
    cost_ms, reads = _measure(
        lambda rid: part_table.lookup(rid, _PROJECT),
        trace, config.warmup_lookups, cost, db,
    )
    stats = part_table.stats()
    assert baseline_cost is not None
    rows.append(
        Fig3Row(
            label="Partition",
            cost_ms_per_lookup=cost_ms,
            disk_reads_per_lookup=reads,
            index_bytes=stats.hot_index_bytes,
            speedup=baseline_cost / cost_ms if cost_ms else float("inf"),
        )
    )
    return rows


def main() -> None:
    rows = run()
    print_table(
        ["config", "cost/lookup (ms)", "disk reads/lookup",
         "hot-path index (KiB)", "speedup"],
        [
            (r.label, r.cost_ms_per_lookup, r.disk_reads_per_lookup,
             r.index_bytes // 1024, f"{r.speedup:.2f}x")
            for r in rows
        ],
        title="Figure 3: query cost under clustering/partitioning",
    )
    full = rows[0].index_bytes
    hot = rows[-1].index_bytes
    print(
        f"\nindex the hot path descends: {full / 1024:.0f} KiB -> "
        f"{hot / 1024:.0f} KiB ({full / hot:.1f}x smaller; paper: 19x)"
    )


if __name__ == "__main__":
    main()
