"""§1 headline claims: memory ÷ up-to-17.8×, queries × up-to-8.

"We show that these techniques effectively reduce memory requirements for
real scenarios from the Wikipedia database (by up to 17.8×) while
increasing query performance (by up to 8×)."

The memory scenario: RAM needed to serve the hot revision workload.

* **before** — the revision table as deployed: MediaWiki's declared
  encoding (INT64 ids, 14-byte timestamp strings) in one flat table; the
  hot tuples are scattered, so serving them keeps nearly every heap page
  *and* the full index resident.
* **after** — all three techniques: hot/cold partitioning (§3.1) so only
  hot pages matter, the optimized physical encoding (§4.1) shrinking each
  tuple, and the small hot index.

Both sides are *measured from real pages*: we build both layouts and
count the distinct pages the hot workload actually touches.

The query-performance side is Figure 3's partition speedup, reused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import fig3
from repro.experiments.runner import print_table
from repro.query.database import Database
from repro.query.table import PlainIndex
from repro.util.units import fmt_bytes
from repro.workload.wikipedia import (
    REVISION_SCHEMA,
    REVISION_SCHEMA_DECLARED,
    WikipediaConfig,
    declared_revision_row,
    generate,
)


@dataclass(frozen=True)
class HeadlineResult:
    """The two §1 numbers, measured."""

    baseline_ram_bytes: int
    optimized_ram_bytes: int
    memory_reduction: float      # paper: up to 17.8x
    query_speedup: float         # paper: up to 8x


def _hot_working_set_bytes(
    index: PlainIndex, hot_rev_ids: set[int], page_size: int
) -> int:
    """Bytes of pages the hot workload touches: distinct heap pages holding
    hot tuples, distinct index leaves owning hot keys, plus index
    internals (always resident on the descent path)."""
    heap_pages: set[int] = set()
    leaf_pages: set[int] = set()
    for rev_id in hot_rev_ids:
        key = index.encode_key(rev_id)
        rid = index.find_rid(rev_id)
        assert rid is not None
        heap_pages.add(rid.page_id)
        leaf_pages.add(index.tree.find_leaf(key))
    internals = len(index.tree.internal_page_ids)
    return (len(heap_pages) + len(leaf_pages) + internals) * page_size


def run(
    n_pages: int = 1_000,
    revisions_per_page: int = 20,
    seed: int = 0,
    page_size: int = 4_096,
    measure_query_speedup: bool = True,
) -> HeadlineResult:
    """Measure both headline numbers on the synthetic revision scenario."""
    data = generate(
        WikipediaConfig(
            n_pages=n_pages, revisions_per_page_mean=revisions_per_page,
            seed=seed,
        )
    )
    hot = data.hot_rev_ids

    # Baseline: flat table, declared (wasteful) physical encoding.
    db = Database(page_size, 1 << 20)
    table = db.create_table(
        "revision", REVISION_SCHEMA_DECLARED, append_only=True
    )
    index = db.create_index("revision", "rev_pk", ("rev_id",))
    for row in data.revision_rows:
        table.insert(declared_revision_row(row))
    baseline_ram = _hot_working_set_bytes(index, hot, page_size)

    # Optimized: hot partition only, compact physical encoding.
    db2 = Database(page_size, 1 << 20)
    hot_table = db2.create_table(
        "revision_hot", REVISION_SCHEMA, append_only=True
    )
    hot_index = db2.create_index("revision_hot", "rev_hot_pk", ("rev_id",))
    for row in data.revision_rows:
        if row["rev_id"] in hot:
            hot_table.insert(row)
    optimized_ram = _hot_working_set_bytes(hot_index, hot, page_size)

    speedup = 0.0
    if measure_query_speedup:
        rows = fig3.run(
            fig3.Fig3Config(
                n_pages=n_pages,
                revisions_per_page_mean=revisions_per_page,
                seed=seed,
            )
        )
        speedup = rows[-1].speedup

    return HeadlineResult(
        baseline_ram_bytes=baseline_ram,
        optimized_ram_bytes=optimized_ram,
        memory_reduction=baseline_ram / optimized_ram,
        query_speedup=speedup,
    )


def main() -> None:
    result = run()
    print_table(
        ["quantity", "value"],
        [
            ("hot working set, deployed layout",
             fmt_bytes(result.baseline_ram_bytes)),
            ("hot working set, partitioned + re-encoded",
             fmt_bytes(result.optimized_ram_bytes)),
            ("memory reduction",
             f"{result.memory_reduction:.1f}x (paper: up to 17.8x)"),
            ("query speedup (Fig 3 partition)",
             f"{result.query_speedup:.1f}x (paper: up to 8x)"),
        ],
        title="Headline claims (Section 1)",
    )


if __name__ == "__main__":
    main()
