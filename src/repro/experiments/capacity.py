"""§2.1.4 capacity analysis: how many cache items fits Wikipedia's
name_title index, and can it answer the popular query class?

Paper's arithmetic: the name_title index holds 360 MB of key data at a 68%
fill factor; with 25-byte cache items the free space holds ~7.9 M items —
over 70% of the page table's tuples — and the measured cache hit rate on
the Wikipedia trace exceeds 90%, answering the 40%-of-workload query
class almost entirely from the index.

Two parts:

* :func:`analytic` — the same back-of-envelope at the paper's constants;
* :func:`run_measured` — a real cached name_title index over the
  synthetic page table, measuring actual free bytes, actual capacity, and
  the actual trace hit rate.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

from repro.btree.stats import collect_stats
from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import CachedBTree
from repro.experiments.runner import print_table, since
from repro.query.table import Table
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RID_SIZE
from repro.util.rng import DeterministicRng
from repro.util.units import MiB
from repro.workload.wikipedia import (
    PAGE_SCHEMA,
    WikipediaConfig,
    generate,
    name_title_lookup_trace,
)


@dataclass(frozen=True)
class AnalyticCapacity:
    """The paper's §2.1.4 arithmetic at given constants."""

    key_data_bytes: float
    fill_factor: float
    item_size: int
    page_table_tuples: int
    cache_items: int
    tuple_coverage: float


def analytic() -> AnalyticCapacity:
    """Free space = key_data × (1/fill − 1); items = free / item size, at
    the paper's constants: 360 MB of name_title key data at 68 % fill,
    25-byte cache items, 11 M page-table tuples."""
    key_data_bytes, fill_factor = 360 * MiB, 0.68
    item_size, page_table_tuples = 25, 11_000_000
    free = key_data_bytes * (1.0 / fill_factor - 1.0)
    items = int(free // item_size)
    return AnalyticCapacity(
        key_data_bytes=key_data_bytes,
        fill_factor=fill_factor,
        item_size=item_size,
        page_table_tuples=page_table_tuples,
        cache_items=items,
        tuple_coverage=items / page_table_tuples,
    )


@dataclass(frozen=True)
class MeasuredCapacity:
    """Measured counterpart on the synthetic page table."""

    page_table_tuples: int
    leaf_fill_factor: float
    free_bytes: int
    item_size: int
    cache_capacity: int
    tuple_coverage: float
    trace_hit_rate: float
    answered_from_cache: float


#: The §2.1.4 query class: key (namespace, title) plus 4 projected fields.
CACHED_FIELDS = ("page_id", "page_latest", "page_touched", "page_len")
QUERY_PROJECTION = ("page_namespace", "page_title") + CACHED_FIELDS


def run_measured(
    n_pages: int = 4_000,
    n_lookups: int = 40_000,
    seed: int = 0,
) -> MeasuredCapacity:
    """Build the cached name_title index and replay the lookup trace.

    The read skew (``read_alpha`` 1.2) is steeper than the edit skew:
    page-view popularity on the web is heavier-tailed than edit activity,
    and the paper's >90% measured hit rate implies the read-side skew.
    """
    data = generate(
        WikipediaConfig(
            n_pages=n_pages, revisions_per_page_mean=2,
            read_alpha=1.2, seed=seed,
        )
    )
    disk = SimulatedDisk(4096)
    pool = BufferPool(disk, 100_000)
    heap = HeapFile(pool)
    # Composite key: namespace (1 B) + title char(24) = 25 bytes.
    key_size = 1 + 24
    tree = BPlusTree(pool, key_size=key_size, value_size=RID_SIZE,
                     name="name_title")
    index = CachedBTree(
        tree, heap, PAGE_SCHEMA,
        key_columns=("page_namespace", "page_title"),
        cached_fields=CACHED_FIELDS,
        rng=DeterministicRng(seed),
    )
    table = Table("page", PAGE_SCHEMA, heap)
    table.attach_index("name_title", index)
    # Insert in shuffled order: page rows are generated in title order, and
    # purely sequential key inserts would leave every leaf at the split
    # fraction; random arrival reproduces the ~68% steady state.
    rows = list(data.page_rows)
    DeterministicRng(seed + 1).shuffle(rows)
    for row in rows:
        table.insert(row)
    # The tree was grown by inserts, so its fill is whatever splits left;
    # report it rather than forcing `leaf_fill`.
    stats = collect_stats(tree)
    capacity = index.cache_capacity_total()

    trace = name_title_lookup_trace(data, n_lookups, seed=seed + 5)
    for key in trace[: n_lookups // 2]:
        index.lookup(key, QUERY_PROJECTION)
    index_before, cache_before = copy(index.stats), copy(index.cache.stats)
    for key in trace[n_lookups // 2 :]:
        index.lookup(key, QUERY_PROJECTION)

    return MeasuredCapacity(
        page_table_tuples=n_pages,
        leaf_fill_factor=stats.leaf_fill_mean,
        free_bytes=stats.free_bytes_total,
        item_size=index.cache.item_size,
        cache_capacity=capacity,
        tuple_coverage=capacity / n_pages,
        trace_hit_rate=since(index.cache.stats, cache_before).hit_rate,
        answered_from_cache=since(index.stats, index_before).cache_answer_rate,
    )


def main() -> None:
    a = analytic()
    print_table(
        ["quantity", "value"],
        [
            ("key data", f"{a.key_data_bytes / MiB:.0f} MiB"),
            ("fill factor", a.fill_factor),
            ("item size", f"{a.item_size} B"),
            ("cache items", f"{a.cache_items / 1e6:.1f} M (paper: 7.9 M)"),
            ("tuple coverage", f"{a.tuple_coverage:.0%} (paper: >70%)"),
        ],
        title="Sec 2.1.4 analytic capacity (paper constants)",
    )
    m = run_measured()
    print_table(
        ["quantity", "value"],
        [
            ("page tuples", m.page_table_tuples),
            ("leaf fill", f"{m.leaf_fill_factor:.2f}"),
            ("item size", f"{m.item_size} B"),
            ("cache capacity", m.cache_capacity),
            ("tuple coverage", f"{m.tuple_coverage:.0%}"),
            ("trace hit rate", f"{m.trace_hit_rate:.1%} (paper: >90%)"),
            ("answered from cache", f"{m.answered_from_cache:.1%}"),
        ],
        title="\nSec 2.1.4 measured (synthetic page table)",
    )


if __name__ == "__main__":
    main()
