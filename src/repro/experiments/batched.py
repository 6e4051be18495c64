"""Batched read fast path: pool-access savings, measured.

The tentpole claim: resolving a Zipf-skewed batch of point lookups
through :meth:`~repro.query.table.Table.lookup_many` (sorted probes,
shared index descents, page-ordered heap fetches, each page pinned once)
costs *several times fewer* buffer-pool accesses than the per-key loop —
with bit-identical results.  This driver measures that on a plain RID
index and on a §2.1 cached index, plus the free-space-map side dish: the
size-bucketed :class:`~repro.storage.freespace.FreeSpaceMap` examines a
deterministic, near-constant number of candidate pages per insert where
the old first-fit walk examined O(#pages).

All numbers are deterministic operation counts (pool hits+misses, pages
examined), never wall time, so they are safe to gate in CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.freespace import FreeSpaceMap
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution

SCHEMA = Schema.of(
    ("rev_id", UINT64), ("rev_page", UINT64), ("rev_len", UINT32),
    ("pad", char(48)),
)
CACHED_FIELDS = ("rev_page", "rev_len")
PROJECTION = ("rev_id",) + CACHED_FIELDS


@dataclass(frozen=True)
class BatchedReadResult:
    """Deterministic access counts for scalar vs batched lookups."""

    n_rows: int
    batch_size: int
    n_batches: int
    plain_scalar_fetches: int
    plain_batched_fetches: int
    cached_scalar_fetches: int
    cached_batched_fetches: int
    fsm_linear_examined: int
    fsm_bucketed_examined: int

    @property
    def plain_reduction(self) -> float:
        """How many times fewer pool accesses the batched plain path does."""
        return self.plain_scalar_fetches / max(1, self.plain_batched_fetches)

    @property
    def cached_reduction(self) -> float:
        return self.cached_scalar_fetches / max(1, self.cached_batched_fetches)

    @property
    def fsm_speedup(self) -> float:
        """Candidate examinations: first-fit scan ÷ size-bucketed."""
        return self.fsm_linear_examined / max(1, self.fsm_bucketed_examined)


class _LinearFsmReference:
    """The pre-bucketing first-fit scan, kept only to count its cost."""

    def __init__(self) -> None:
        self._free: dict[int, int] = {}
        self.pages_examined = 0

    def note(self, page_id: int, free_bytes: int) -> None:
        self._free[page_id] = free_bytes

    def find_page_with(self, need_bytes: int) -> int | None:
        for page_id, free in self._free.items():
            self.pages_examined += 1
            if free >= need_bytes:
                return page_id
        return None


def _build(cached: bool, n_rows: int, pool_pages: int, seed: int):
    # No explicit registry: emit into the ambient default so the
    # ``experiments.all --json`` convention (per-driver snapshots) holds.
    db = Database(data_pool_pages=pool_pages, seed=seed)
    table = db.create_table("revision", SCHEMA)
    if cached:
        db.create_cached_index("revision", "pk", ("rev_id",), CACHED_FIELDS)
    else:
        db.create_index("revision", "pk", ("rev_id",))
    rng = DeterministicRng(seed)
    for i in range(n_rows):
        table.insert({
            "rev_id": i,
            "rev_page": i % 97,
            "rev_len": rng.randint(100, 200_000),
            "pad": f"pad-{i}",
        })
    return db, table


def _measure(
    cached: bool,
    batches: list[list[int]],
    n_rows: int,
    pool_pages: int,
    seed: int,
) -> tuple[int, int]:
    """(scalar_fetches, batched_fetches) over identical fresh tables."""
    counts = []
    for use_batch in (False, True):
        db, table = _build(cached, n_rows, pool_pages, seed)
        pool = table.heap.pool
        answers = []
        start = pool.hits + pool.misses
        for batch in batches:
            if use_batch:
                results = table.lookup_many("pk", batch, PROJECTION)
            else:
                results = [
                    table.lookup("pk", key, PROJECTION) for key in batch
                ]
            answers.append([r.values for r in results])
        counts.append((pool.hits + pool.misses - start, answers))
    (scalar_fetches, scalar_answers), (batched_fetches, batched_answers) = counts
    if scalar_answers != batched_answers:
        raise AssertionError("batched lookups diverged from scalar results")
    return scalar_fetches, batched_fetches


def _measure_fsm(n_pages: int, n_finds: int, seed: int) -> tuple[int, int]:
    """Drive the bucketed map and the first-fit reference through one
    identical note/find trace; return (linear, bucketed) examinations."""
    rng = DeterministicRng(seed)
    bucketed = FreeSpaceMap()
    linear = _LinearFsmReference()
    for page_id in range(n_pages):
        free = rng.randint(0, 600)
        bucketed.note(page_id, free)
        linear.note(page_id, free)
    for _ in range(n_finds):
        need = rng.randint(200, 4000)
        got_b = bucketed.find_page_with(need)
        got_l = linear.find_page_with(need)
        # Policies differ (best fit vs first fit) but feasibility must
        # agree: both find a page, or neither does.
        assert (got_b is None) == (got_l is None)
        # Mimic a consumed insert so the trace stays realistic.
        if got_b is not None:
            new_free = max(0, bucketed.free_of(got_b) - need)
            bucketed.note(got_b, new_free)
        if got_l is not None:
            linear.note(got_l, max(0, linear._free[got_l] - need))
    return linear.pages_examined, bucketed.pages_examined


def run(
    n_rows: int = 4_000,
    batch_size: int = 64,
    n_batches: int = 30,
    pool_pages: int = 48,
    alpha: float = 1.0,
    seed: int = 0,
) -> BatchedReadResult:
    """Measure scalar vs batched pool accesses on a Zipf batch workload.

    The pool is deliberately much smaller than the table so repeated
    scalar probes of the same hot pages still cost pool traffic, exactly
    the regime where pinning each page once per batch pays.
    """
    rng = DeterministicRng(seed + 1)
    zipf = ZipfianDistribution(n_rows, alpha, rng)
    batches = [
        [zipf.sample() % n_rows for _ in range(batch_size)]
        for _ in range(n_batches)
    ]
    plain_scalar, plain_batched = _measure(
        False, batches, n_rows, pool_pages, seed
    )
    cached_scalar, cached_batched = _measure(
        True, batches, n_rows, pool_pages, seed
    )
    fsm_linear, fsm_bucketed = _measure_fsm(
        n_pages=800, n_finds=2_000, seed=seed
    )
    return BatchedReadResult(
        n_rows=n_rows,
        batch_size=batch_size,
        n_batches=n_batches,
        plain_scalar_fetches=plain_scalar,
        plain_batched_fetches=plain_batched,
        cached_scalar_fetches=cached_scalar,
        cached_batched_fetches=cached_batched,
        fsm_linear_examined=fsm_linear,
        fsm_bucketed_examined=fsm_bucketed,
    )


def main() -> None:
    from repro.experiments.runner import print_table

    result = run()
    print_table(
        ["path", "scalar fetches", "batched fetches", "reduction"],
        [
            ("plain index", result.plain_scalar_fetches,
             result.plain_batched_fetches,
             f"{result.plain_reduction:.2f}x"),
            ("cached index", result.cached_scalar_fetches,
             result.cached_batched_fetches,
             f"{result.cached_reduction:.2f}x"),
        ],
        title=(
            f"Batched read fast path: {result.n_batches} Zipf batches "
            f"of {result.batch_size} over {result.n_rows} rows"
        ),
    )
    print_table(
        ["free-space map", "pages examined"],
        [
            ("first-fit linear scan", result.fsm_linear_examined),
            ("size-bucketed", result.fsm_bucketed_examined),
        ],
        title=f"FSM candidate search ({result.fsm_speedup:.1f}x fewer)",
    )


if __name__ == "__main__":
    main()
