"""Ablations for the design choices DESIGN.md calls out (A1–A4).

* **A1** — cache replacement policy: the paper's stable-point swap versus
  a random cache and a (cheating, out-of-band) LRU, under concurrent key
  inserts that clobber the window's periphery.  The swap policy's whole
  argument is that position encodes hotness; random placement should lose
  more hit rate when the window shrinks.
* **A2** — predicate-log threshold (§2.1.2): small thresholds degenerate
  to frequent full invalidations (cheap bookkeeping, cold caches); large
  thresholds keep caches warm under updates.
* **A3** — vertical partitioning (§3.2): bytes read per query for the
  split vs unsplit revision table, including the merge penalty, compared
  against the analytic recommendation.
* **A4** — routing state (§4.2): lookup-table router vs embedded-id
  router at increasing tuple counts.
* **A5** — cached index vs covering index (§2.1's stated alternative):
  "covering indices still store cold data, waste space and bloat the
  index size".  Both answer covered projections without the heap; the
  comparison is index bytes and buffer-pool pressure under skew.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.core.hot_cold.vertical import (
    VerticallyPartitionedTable,
    recommend_vertical_split,
)
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.covering import CoveringIndex
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.core.index_cache.policy import (
    LruPolicy,
    RandomPolicy,
    SwapPolicy,
)
from repro.core.semantic_ids.embedding import EmbeddedId, plan_reassignment
from repro.core.semantic_ids.routing import RoutingComparison, compare_routers
from repro.experiments.runner import print_table, since
from repro.query.database import Database
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RID_SIZE
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution
from repro.workload.wikipedia import REVISION_SCHEMA, WikipediaConfig, generate

#: Zipf skew of the A1, A2 and A5 key traces.
_ALPHA = 1.0

# ---------------------------------------------------------------------------
# A1: replacement policy under key-region growth
# ---------------------------------------------------------------------------

_A1_SCHEMA = Schema.of(
    ("id", UINT64),
    ("val_a", UINT32),
    ("val_b", UINT32),
    ("pad", char(16)),
)

#: Cache all non-key fields (24 B payload -> 34 B items) so per-leaf
#: capacity is scarce and the replacement policy actually matters.
_A1_CACHED = ("val_a", "val_b", "pad")


@dataclass(frozen=True)
class PolicyAblationRow:
    """A1 result row: one policy's hit rates in both phases."""

    policy: str
    hit_rate_stable: float   # read-only phase
    hit_rate_growth: float   # with concurrent key inserts


def _policy_run(
    make_policy, n_rows: int, n_lookups: int, seed: int
) -> PolicyAblationRow:
    """Existing rows use even ids; the growth phase inserts odd ids, so
    splits and key growth land across the whole tree and clobber cache
    windows everywhere — the situation the stable-point design targets."""

    def build():
        pool = BufferPool(SimulatedDisk(4096), 1 << 20)
        heap = HeapFile(pool)
        tree = BPlusTree(pool, key_size=8, value_size=RID_SIZE)
        rng = DeterministicRng(seed)
        index = CachedBTree(
            tree, heap, _A1_SCHEMA, ("id",), _A1_CACHED,
            policy=make_policy(rng), rng=rng,
        )
        table = Table("t", _A1_SCHEMA, heap)
        table.attach_index("pk", index)
        ids = [2 * i for i in range(n_rows)]
        DeterministicRng(seed + 9).shuffle(ids)
        for i in ids:
            table.insert(
                {"id": i, "val_a": i % 97, "val_b": i % 31, "pad": "x"}
            )
        return table, index

    project = ("id", "val_a", "val_b", "pad")
    zipf_seed = seed + 1

    # Stable phase: warm, then measure with no index growth.
    _, index = build()
    zipf = ZipfianDistribution(n_rows, _ALPHA, DeterministicRng(zipf_seed))
    for _ in range(n_lookups):
        index.lookup(2 * zipf.sample(), project)
    before = copy(index.stats)
    for _ in range(n_lookups):
        index.lookup(2 * zipf.sample(), project)
    stable = since(index.stats, before).cache_answer_rate

    # Growth phase: fresh build, then interleave lookups with inserts of
    # odd ids — leaf splits and key growth eat cache slots tree-wide.
    table, index = build()
    zipf = ZipfianDistribution(n_rows, _ALPHA, DeterministicRng(zipf_seed))
    grow_rng = DeterministicRng(seed + 5)
    for _ in range(n_lookups):
        index.lookup(2 * zipf.sample(), project)
    before = copy(index.stats)
    odd_ids = [2 * i + 1 for i in range(n_rows)]
    grow_rng.shuffle(odd_ids)
    inserted = 0
    for i in range(n_lookups):
        index.lookup(2 * zipf.sample(), project)
        if i % 3 == 0 and inserted < len(odd_ids):
            new_id = odd_ids[inserted]
            inserted += 1
            table.insert(
                {"id": new_id, "val_a": 1, "val_b": 2, "pad": "y"}
            )
    growth = since(index.stats, before).cache_answer_rate
    return PolicyAblationRow(
        policy=make_policy(DeterministicRng(0)).__class__.__name__,
        hit_rate_stable=stable,
        hit_rate_growth=growth,
    )


def run_policy_ablation(
    n_rows: int = 3_000,
    n_lookups: int = 12_000,
    seed: int = 0,
) -> list[PolicyAblationRow]:
    """A1: Swap vs Random vs LRU, with and without index growth."""
    makers = [
        lambda rng: SwapPolicy(rng),
        lambda rng: RandomPolicy(rng),
        lambda rng: LruPolicy(rng),
    ]
    return [_policy_run(make, n_rows, n_lookups, seed) for make in makers]


# ---------------------------------------------------------------------------
# A2: predicate-log threshold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdAblationRow:
    """A2 result row: one log-threshold operating point."""

    threshold: int
    hit_rate: float
    full_invalidations: int
    pages_zeroed: int


#: Share of A2's operations that are updates.
_UPDATE_FRACTION = 0.1


def run_threshold_ablation(
    thresholds: tuple[int, ...] = (4, 64, 4096),
    n_rows: int = 3_000,
    n_ops: int = 12_000,
    seed: int = 0,
) -> list[ThresholdAblationRow]:
    """A2: sweep the §2.1.2 log threshold under a lookup/update mix."""
    rows = []
    for threshold in thresholds:
        pool = BufferPool(SimulatedDisk(4096), 1 << 20)
        heap = HeapFile(pool)
        tree = BPlusTree(pool, key_size=8, value_size=RID_SIZE)
        invalidation = CacheInvalidation(log_threshold=threshold)
        index = CachedBTree(
            tree, heap, _A1_SCHEMA, ("id",), ("val_a", "val_b"),
            rng=DeterministicRng(seed), invalidation=invalidation,
        )
        table = Table("t", _A1_SCHEMA, heap)
        table.attach_index("pk", index)
        for i in range(n_rows):
            table.insert(
                {"id": i, "val_a": i % 97, "val_b": i % 31, "pad": "x"}
            )
        zipf = ZipfianDistribution(n_rows, _ALPHA, DeterministicRng(seed + 1))
        rng = DeterministicRng(seed + 2)
        project = ("id", "val_a", "val_b")
        for _ in range(n_ops):  # warm
            index.lookup(zipf.sample(), project)
        before = copy(index.stats)
        for _ in range(n_ops):
            key = zipf.sample()
            if rng.random() < _UPDATE_FRACTION:
                table.update("pk", key, {"val_a": rng.randrange(97)})
            else:
                index.lookup(key, project)
        rows.append(
            ThresholdAblationRow(
                threshold=threshold,
                hit_rate=since(index.stats, before).cache_answer_rate,
                full_invalidations=invalidation.full_invalidations,
                pages_zeroed=invalidation.pages_zeroed,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# A3: vertical partitioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalAblationResult:
    """A3 result: predicted vs measured bytes/query, split vs unsplit."""

    predicted_bytes_unsplit: float
    predicted_bytes_split: float
    measured_bytes_unsplit: float
    measured_bytes_split: float
    merge_fraction: float


#: The Fig-3 projection (hot) vs full-row history reads (rare).
_HOT_PROJ = frozenset({"rev_page", "rev_text_id", "rev_len"})
_FULL_PROJ = frozenset(
    {"rev_page", "rev_text_id", "rev_len", "rev_user", "rev_timestamp",
     "rev_minor_edit", "rev_comment"}
)
#: Share of A3's reads that want only the hot projection.
_HOT_QUERY_FRACTION = 0.95


def run_vertical_ablation(
    n_pages: int = 400,
    revisions_per_page: int = 5,
    n_lookups: int = 4_000,
    seed: int = 0,
) -> VerticalAblationResult:
    """A3: measured bytes/query for split vs unsplit revision storage."""
    query_classes = [
        (_HOT_PROJ, _HOT_QUERY_FRACTION),
        (_FULL_PROJ, 1.0 - _HOT_QUERY_FRACTION),
    ]
    plan = recommend_vertical_split(
        REVISION_SCHEMA, ("rev_id",), query_classes, hot_threshold=0.5
    )
    data = generate(
        WikipediaConfig(
            n_pages=n_pages, revisions_per_page_mean=revisions_per_page,
            seed=seed,
        )
    )

    # Unsplit baseline.
    db = Database(4096, 1 << 20)
    table = db.create_table("revision", REVISION_SCHEMA)
    rids = {}
    for row in data.revision_rows:
        rids[row["rev_id"]] = table.insert(row)

    # Split table per the recommendation: one table per fragment.
    db2 = Database(4096, 1 << 20)
    for name, columns in (("hot", plan.hot_columns), ("cold", plan.cold_columns)):
        db2.create_table(name, REVISION_SCHEMA.project(["rev_id", *columns]))
        db2.create_index(name, f"{name}_pk", ("rev_id",))
    vtable = VerticallyPartitionedTable(
        REVISION_SCHEMA, (db2.table("hot"), db2.table("cold"))
    )
    for row in data.revision_rows:
        vtable.insert(row)

    rng = DeterministicRng(seed + 3)
    rev_ids = [row["rev_id"] for row in data.revision_rows]
    unsplit_bytes = 0
    for _ in range(n_lookups):
        rev_id = rng.choice(rev_ids)
        project = (
            tuple(_HOT_PROJ) if rng.random() < _HOT_QUERY_FRACTION
            else tuple(_FULL_PROJ)
        )
        record = table.heap.fetch(rids[rev_id])
        unsplit_bytes += len(record)
        vtable.lookup(rev_id, project)
    return VerticalAblationResult(
        predicted_bytes_unsplit=plan.bytes_per_query_unsplit,
        predicted_bytes_split=plan.bytes_per_query_split,
        measured_bytes_unsplit=unsplit_bytes / n_lookups,
        measured_bytes_split=vtable.bytes_read / vtable.lookups,
        merge_fraction=plan.merge_fraction,
    )


# ---------------------------------------------------------------------------
# A5: cached index vs covering index
# ---------------------------------------------------------------------------


#: A5 schema: covered hot fields plus an uncovered blob, so a realistic
#: fraction of queries needs the heap regardless of the index style.
_A5_SCHEMA = Schema.of(
    ("id", UINT64),
    ("val_a", UINT32),
    ("val_b", UINT32),
    ("pad", char(16)),
    ("extra", char(40)),  # never covered/cached
)
_A5_COVERED = ("val_a", "val_b", "pad")
#: Share of A5's lookups that project the uncovered column.
_UNCOVERED_QUERY_FRACTION = 0.3


@dataclass(frozen=True)
class CoveringAblationRow:
    """A5 result row: one indexing approach's size and pressure costs."""

    approach: str
    index_bytes: int
    answered_from_index: float   # fraction of lookups with no heap access
    disk_reads_per_lookup: float


def run_covering_ablation(
    n_rows: int = 3_000,
    n_lookups: int = 10_000,
    pool_pages: int = 48,
    seed: int = 0,
) -> list[CoveringAblationRow]:
    """A5: same workload, cached vs covering index, under RAM pressure.

    ``_UNCOVERED_QUERY_FRACTION`` of lookups project the uncovered column,
    forcing heap pages into the pool for both approaches — the realistic
    regime where the covering index's duplicated bytes are pure added
    pressure ("wastes more total bytes, and increases pressure on RAM").

    The default pool roughly fits the hot working set, the regime the
    paper implicitly assumes (production pools are provisioned near their
    working sets).  Under extreme thrash (pool ≪ working set) the
    covering index wins back on reads because it never touches the heap
    for covered projections — the honest crossover is reported in
    EXPERIMENTS.md.
    """
    covered_proj = ("id", "val_a", "val_b", "pad")
    full_proj = covered_proj + ("extra",)

    def row_of(i: int) -> dict[str, object]:
        return {
            "id": i, "val_a": i % 97, "val_b": i % 31, "pad": "x",
            "extra": f"blob-{i}",
        }

    def drive(index, pool) -> tuple[float, float]:
        zipf = ZipfianDistribution(n_rows, _ALPHA, DeterministicRng(seed + 1))
        proj_rng = DeterministicRng(seed + 3)
        def one_lookup():
            proj = (
                full_proj if proj_rng.random() < _UNCOVERED_QUERY_FRACTION
                else covered_proj
            )
            index.lookup(zipf.sample(), proj)
        for _ in range(n_lookups):  # warm
            one_lookup()
        reads_before = pool.disk.reads
        covering = isinstance(index, CoveringIndex)
        if covering:
            # no registry reads the covering index's counts, and the A5 pin
            # reads this one as the measured phase's
            index.stats.answered_from_index = 0
        before = copy(index.stats)
        for _ in range(n_lookups):
            one_lookup()
        phase = since(index.stats, before)
        answered = (
            phase.answered_from_index if covering else phase.answered_from_cache
        )
        return (
            answered / phase.found if phase.found else 0.0,
            (pool.disk.reads - reads_before) / n_lookups,
        )

    def load(index, heap) -> None:
        table = Table("t", _A5_SCHEMA, heap)
        table.attach_index("pk", index)
        ids = list(range(n_rows))
        DeterministicRng(seed + 2).shuffle(ids)
        for i in ids:
            table.insert(row_of(i))

    rows = []

    # Cached index.
    pool = BufferPool(SimulatedDisk(4096), pool_pages)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=8, value_size=RID_SIZE)
    cached = CachedBTree(
        tree, heap, _A5_SCHEMA, ("id",), _A5_COVERED,
        rng=DeterministicRng(seed),
    )
    load(cached, heap)
    answer_rate, reads = drive(cached, pool)
    rows.append(
        CoveringAblationRow(
            approach="cached index (paper)",
            index_bytes=tree.size_bytes,
            answered_from_index=answer_rate,
            disk_reads_per_lookup=reads,
        )
    )

    # Covering index.
    pool2 = BufferPool(SimulatedDisk(4096), pool_pages)
    heap2 = HeapFile(pool2)
    value_size = CoveringIndex.value_size_for(_A5_SCHEMA, _A5_COVERED)
    tree2 = BPlusTree(pool2, key_size=8, value_size=value_size)
    covering = CoveringIndex(tree2, heap2, _A5_SCHEMA, ("id",), _A5_COVERED)
    load(covering, heap2)
    answer_rate, reads = drive(covering, pool2)
    rows.append(
        CoveringAblationRow(
            approach="covering index",
            index_bytes=tree2.size_bytes,
            answered_from_index=answer_rate,
            disk_reads_per_lookup=reads,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# A4: routing state
# ---------------------------------------------------------------------------

#: Partitions A4's tuples are placed over, uniformly at random.
_PARTITIONS = 16


def run_routing_ablation(
    sizes: tuple[int, ...] = (10_000, 100_000),
    seed: int = 0,
) -> list[RoutingComparison]:
    """A4: routing-table bytes vs embedded-id bytes at increasing scale."""
    scheme = EmbeddedId(partition_bits=8)
    rng = DeterministicRng(seed)
    results = []
    for n in sizes:
        placement = {i: rng.randrange(_PARTITIONS) for i in range(n)}
        plan = plan_reassignment(scheme, placement)
        embedded = {plan.new_id(i): p for i, p in placement.items()}
        probes = rng.sample(list(embedded), min(1_000, n))
        results.append(compare_routers(embedded, scheme, probes))
    return results


def main() -> None:
    """Print every ablation table (A1-A5)."""
    print_table(
        ["policy", "hit rate (stable)", "hit rate (growth)"],
        [
            (r.policy, r.hit_rate_stable, r.hit_rate_growth)
            for r in run_policy_ablation()
        ],
        title="A1: replacement policy under index growth",
    )
    print_table(
        ["log threshold", "hit rate", "full invalidations", "pages zeroed"],
        [
            (r.threshold, r.hit_rate, r.full_invalidations, r.pages_zeroed)
            for r in run_threshold_ablation()
        ],
        title="\nA2: predicate-log threshold (10% updates)",
    )
    v = run_vertical_ablation()
    print_table(
        ["metric", "unsplit", "split"],
        [
            ("predicted B/query", v.predicted_bytes_unsplit,
             v.predicted_bytes_split),
            ("measured B/query", v.measured_bytes_unsplit,
             v.measured_bytes_split),
        ],
        title="\nA3: vertical partitioning (merge fraction "
        f"{v.merge_fraction:.0%})",
    )
    print_table(
        ["tuples", "routing table", "embedded id"],
        [
            (r.tuples, f"{r.lookup_table_bytes} B", f"{r.embedded_bytes} B")
            for r in run_routing_ablation()
        ],
        title="\nA4: routing state, per-tuple placement",
    )
    print_table(
        ["approach", "index bytes", "answered from index", "disk reads/lookup"],
        [
            (r.approach, r.index_bytes, r.answered_from_index,
             r.disk_reads_per_lookup)
            for r in run_covering_ablation()
        ],
        title="\nA5: cached vs covering index",
    )


if __name__ == "__main__":
    main()
