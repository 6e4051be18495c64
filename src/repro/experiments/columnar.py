"""Vectorized columnar executor: batch kernels vs the row oracle, measured.

The §5h claim: on a scan/aggregate-heavy analytical slice of the hot
partition, running filter/project/aggregate over encoded column vectors
(no per-row dict materialization until output) is *several times* faster
than the row-at-a-time executor — with list-identical results — and the
column-major mirror re-captures the §4 encoding savings (delta varints,
bit-packing, dictionaries) that the row format leaves on the table.

Two timing regimes are reported because both are design points:

* **cold** — the store's memoised answers and every segment's memo
  cleared before every query, so the number is pure kernel-vs-row-loop
  execution;
* **reused** — the analytical loop repeats its query shapes, so the
  store's memo of whole answers (keyed by verb, projection or specs and
  the predicate's constants, dropped by any write to the table) serves
  copies.

Wall time is inherently machine-dependent; the identity check and the
compression ratio are exact (pinned in ``tests/test_experiments_smoke.py``),
and the wall clock is judged by ``python3 -m bench --compare``
(``columnar.cold_query_p50_us`` / ``cached_query_p50_us``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.query.database import Database
from repro.query.predicates import And, ColumnEq, ColumnRange
from repro.schema.schema import Schema
from repro.schema.types import BOOL, INT32, UINT32, UINT64, char
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution

SCHEMA = Schema.of(
    ("id", UINT64), ("cat", char(4)), ("n", UINT32), ("d", INT32),
    ("flag", BOOL),
)

AGG_SPECS = [
    ("count", None), ("sum", "n"), ("min", "n"), ("max", "n"), ("avg", "d"),
]


@dataclass(frozen=True)
class ColumnarResult:
    """Wall timings plus the exact (machine-independent) side facts."""

    n_rows: int
    n_queries: int
    row_scan_s: float
    col_scan_cold_s: float
    col_scan_reused_s: float
    row_agg_s: float
    col_agg_cold_s: float
    col_agg_reused_s: float
    cache_hits: int
    cache_misses: int
    encoded_bytes: int
    raw_bytes: int
    verified: bool

    @property
    def scan_speedup_cold(self) -> float:
        return self.row_scan_s / max(1e-9, self.col_scan_cold_s)

    @property
    def scan_speedup_reused(self) -> float:
        return self.row_scan_s / max(1e-9, self.col_scan_reused_s)

    @property
    def agg_speedup_cold(self) -> float:
        return self.row_agg_s / max(1e-9, self.col_agg_cold_s)

    @property
    def agg_speedup_reused(self) -> float:
        return self.row_agg_s / max(1e-9, self.col_agg_reused_s)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / max(1, total)

    @property
    def compression_ratio(self) -> float:
        """Row-format bytes ÷ encoded column bytes for the same rows."""
        return self.raw_bytes / max(1, self.encoded_bytes)


def _build(n_rows: int, seed: int, segment_rows: int | None):
    db = Database(seed=seed, wal=False)
    table = db.create_table("hot", SCHEMA)
    db.create_index("hot", "pk", ("id",))
    rng = DeterministicRng(seed)
    for i in range(n_rows):
        table.insert({
            "id": i,
            "cat": f"c{i % 6}",
            "n": (i * 13) % 500,
            "d": rng.randint(-200, 200),
            "flag": i % 4 == 0,
        })
    manager = db.enable_columnar(segment_rows=segment_rows)
    return db, table, manager


def _query_mix(n_queries: int, seed: int):
    """Zipf over a small family of predicate shapes — analytical loops
    repeat their shapes, which is exactly what the answer memo banks on."""
    rng = DeterministicRng(seed + 1)
    shapes = [
        ColumnRange("n", 0, 120),
        ColumnRange("n", 250, 499),
        ColumnEq("cat", "c2"),
        And((ColumnRange("n", 100, 400), ColumnEq("flag", False))),
        ColumnEq("flag", True),
        ColumnRange("d", -50, 50),
        And((ColumnEq("cat", "c1"), ColumnRange("d", 0, 200))),
        ColumnRange("n", 60, 70),
    ]
    zipf = ZipfianDistribution(len(shapes), 1.2, rng)
    return [shapes[zipf.sample()] for _ in range(n_queries)]


def _time_scans(table, predicates, use_columnar: bool) -> float:
    start = time.perf_counter()
    for predicate in predicates:
        list(table.scan(predicate, ("id", "n"), use_columnar=use_columnar))
    return time.perf_counter() - start


def _time_aggs(table, predicates, use_columnar: bool) -> float:
    start = time.perf_counter()
    for predicate in predicates:
        table.aggregate(AGG_SPECS, predicate, use_columnar=use_columnar)
    return time.perf_counter() - start


def run(
    n_rows: int = 12_000,
    n_queries: int = 40,
    seed: int = 0,
    segment_rows: int | None = None,
) -> ColumnarResult:
    db, table, manager = _build(n_rows, seed, segment_rows)
    predicates = _query_mix(n_queries, seed)

    # Identity first: every predicate shape, both verbs, both executors.
    verified = True
    for predicate in set(predicates):
        if list(table.scan(predicate)) != list(
            table.scan(predicate, use_columnar=False)
        ):
            verified = False
        if table.aggregate(AGG_SPECS, predicate) != table.aggregate(
            AGG_SPECS, predicate, use_columnar=False
        ):
            verified = False

    row_scan_s = _time_scans(table, predicates, use_columnar=False)
    row_agg_s = _time_aggs(table, predicates, use_columnar=False)

    # Cold: clear the memoised answers and the segment memos before each
    # query so the number is kernel execution, not memoization.
    def cold(timer):
        total = 0.0
        for predicate in predicates:
            manager.clear_fragments()
            total += timer(table, [predicate], use_columnar=True)
        return total

    col_scan_cold_s = cold(_time_scans)
    col_agg_cold_s = cold(_time_aggs)

    # Reused: the repeated-shape loop as-is, memo warm from here on.
    manager.clear_fragments()
    stats = manager.stats
    hits_before, misses_before = stats.cache_hits, stats.cache_misses
    col_scan_reused_s = _time_scans(table, predicates, use_columnar=True)
    col_agg_reused_s = _time_aggs(table, predicates, use_columnar=True)
    cache_hits = stats.cache_hits - hits_before
    cache_misses = stats.cache_misses - misses_before

    encoded, raw = manager.refresh_encoding_stats()
    return ColumnarResult(
        n_rows=n_rows,
        n_queries=n_queries,
        row_scan_s=row_scan_s,
        col_scan_cold_s=col_scan_cold_s,
        col_scan_reused_s=col_scan_reused_s,
        row_agg_s=row_agg_s,
        col_agg_cold_s=col_agg_cold_s,
        col_agg_reused_s=col_agg_reused_s,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        encoded_bytes=encoded,
        raw_bytes=raw,
        verified=verified,
    )


def main() -> None:
    from repro.experiments.runner import print_table

    result = run()
    ms = lambda s: f"{s * 1e3:.1f} ms"  # noqa: E731
    print_table(
        ["verb", "row executor", "columnar cold", "columnar reused",
         "speedup cold", "speedup reused"],
        [
            ("scan+project", ms(result.row_scan_s),
             ms(result.col_scan_cold_s), ms(result.col_scan_reused_s),
             f"{result.scan_speedup_cold:.1f}x",
             f"{result.scan_speedup_reused:.1f}x"),
            ("aggregate", ms(result.row_agg_s),
             ms(result.col_agg_cold_s), ms(result.col_agg_reused_s),
             f"{result.agg_speedup_cold:.1f}x",
             f"{result.agg_speedup_reused:.1f}x"),
        ],
        title=(
            f"Vectorized columnar executor: {result.n_queries} Zipf-shaped "
            f"queries over {result.n_rows} rows "
            f"(results verified identical: {result.verified})"
        ),
    )
    print_table(
        ["fact", "value"],
        [
            ("fragment-cache hit rate",
             f"{result.cache_hit_rate:.0%} "
             f"({result.cache_hits} hits / {result.cache_misses} misses)"),
            ("column encoding", f"{result.raw_bytes} B row-format -> "
             f"{result.encoded_bytes} B encoded "
             f"({result.compression_ratio:.1f}x)"),
        ],
        title="Side facts (exact, machine-independent)",
    )


if __name__ == "__main__":
    main()
