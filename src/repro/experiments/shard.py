"""Sharding scale-out: the §3 locality argument across machines.

One engine holding the 10× Wikipedia revision table on a fixed buffer
pool lives the §3.1 pathology: 99.9% of reads hit latest revisions, but
those hot tuples are scattered ~one per heap page, so the hot *page* set
dwarfs the pool and every lookup pays a disk read.  Sharding the table
over N engines — each modeling a machine with the *same* pool — shrinks
every shard's partition until, at 4 shards, the whole hot partition fits
in RAM ("Tidying Up the Address Space", PAPERS.md): lookups become pool
hits and scatter-gather scans run over N shards in parallel.

Timing is **simulated and deterministic**: every engine charges its cost
model per pool hit/miss, and the facade advances one clock by the *max*
over the shards an operation touched (shards are independent machines).
The same seed therefore produces the same throughputs to the digit on
any host — which is what lets ``tests/test_experiments_smoke.py`` pin the
scaling floor and the simulated microseconds as literals (``bench``
tracks the same economics as ``sim_us_per_op``@``shard_fleet``).

The router runs in ``zipf`` mode: a warm-up phase feeds the live access
tracker, one :meth:`rebalance` migrates the hot head of the Zipf
distribution round-robin across shards, and the measured phase then
verifies the spread — no shard may carry more than 40% of hot-key
traffic (ISSUE 9 / "Exploiting Data Skew for Improved Query
Performance", PAPERS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.shard.database import ShardedDatabase
from repro.workload.wikipedia import (
    REVISION_SCHEMA,
    WikipediaConfig,
    generate,
    revision_lookup_trace,
)

#: Shard counts swept by :func:`run`; 1 is the unsharded baseline.
SHARD_COUNTS = (1, 2, 4)

#: 10× the fault drill's table: 3 000 pages × ~4 revisions ≈ 12 000 rows.
N_PAGES = 3_000
REVISIONS_PER_PAGE = 4

#: Buffer-pool frames **per shard** — each shard models a machine with
#: this much RAM, so scaling out adds memory, exactly the trade the
#: paper prices.  One shard's ~160-page partition thrashes in 64 frames;
#: a 4-shard partition (~40 heap pages + index) fits.
POOL_PAGES = 64

#: Lookups per phase (warm-up feeds the tracker; measurement follows).
TRACE_LEN = 4_000

#: Full scatter-gather scans + aggregates in the measured phase.
N_SCANS = 4


@dataclass(frozen=True)
class ShardPoint:
    """One shard count's measured phase (simulated time — deterministic)."""

    n_shards: int
    ops: int
    sim_s: float
    pool_hit_rate: float
    keys_moved: int

    @property
    def throughput(self) -> float:
        """Measured-phase operations per simulated second."""
        return self.ops / max(1e-12, self.sim_s)


@dataclass(frozen=True)
class ShardScalingResult:
    """The sweep plus the hot-key spread evidence at the widest point."""

    n_rows: int
    points: tuple[ShardPoint, ...]
    #: Fraction of measured hot-key traffic each shard carries at the
    #: widest sweep point, before and after the rebalance.
    hot_shares_before: tuple[float, ...]
    hot_shares_after: tuple[float, ...]
    #: Cross-config identity: every sweep point returned the same
    #: aggregate totals and found every traced key.
    verified: bool

    def point(self, n_shards: int) -> ShardPoint:
        for p in self.points:
            if p.n_shards == n_shards:
                return p
        raise KeyError(n_shards)

    @property
    def max_hot_share(self) -> float:
        return max(self.hot_shares_after)


def _hot_shares(sdb: ShardedDatabase, trace, hot_ids) -> tuple[float, ...]:
    """Share of the trace's hot-key accesses each shard would serve under
    the router's *current* placement (pure metadata — no I/O)."""
    counts = [0] * sdb.n_shards
    for rev_id in trace:
        if rev_id in hot_ids:
            counts[sdb.router.placement(rev_id)] += 1
    total = max(1, sum(counts))
    return tuple(c / total for c in counts)


def run(
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    n_pages: int = N_PAGES,
    revisions_per_page: int = REVISIONS_PER_PAGE,
    pool_pages: int = POOL_PAGES,
    trace_len: int = TRACE_LEN,
    seed: int = 0,
) -> ShardScalingResult:
    data = generate(
        WikipediaConfig(
            n_pages=n_pages,
            revisions_per_page_mean=revisions_per_page,
            seed=seed,
        )
    )
    hot_ids = data.hot_rev_ids
    warm_trace = revision_lookup_trace(data, trace_len, seed=100)
    measured_trace = revision_lookup_trace(data, trace_len, seed=101)

    widest = max(shard_counts)
    points = []
    agg_totals = []
    shares_before = shares_after = (1.0,)
    verified = True
    for n in shard_counts:
        sdb = ShardedDatabase(
            n,
            mode="zipf",
            data_pool_pages=pool_pages,
            seed=seed,
        )
        sdb.create_table("revision", REVISION_SCHEMA)
        # A *plain* index: the experiment prices heap-page residency, so
        # lookups must reach the heap (the §2.1 cached index would hide
        # the pool economics the sweep exists to show).
        sdb.create_index("revision", "rev_pk", ("rev_id",))
        table = sdb.table("revision")
        for row in data.revision_rows:
            table.insert(row)

        # Warm-up: feed the tracker (and the pools) with real traffic,
        # then spread the observed hot head across the shards.
        for rev_id in warm_trace:
            table.lookup("rev_pk", rev_id)
        if n == widest:
            shares_before = _hot_shares(sdb, measured_trace, hot_ids)
        report = sdb.rebalance()
        if n == widest:
            shares_after = _hot_shares(sdb, measured_trace, hot_ids)

        # Measured phase: the lookup trace plus scatter-gather analytics,
        # timed on the facade's parallel sim clock.
        start_ns = sdb.sim_now_ns
        ops = 0
        found_all = True
        for rev_id in measured_trace:
            result = table.lookup("rev_pk", rev_id)
            found_all = found_all and result.found
            ops += 1
        for _ in range(N_SCANS):
            ops += sum(1 for _ in table.scan(project=("rev_id", "rev_len")))
        totals = table.aggregate(
            [("count", None), ("sum", "rev_len"), ("max", "rev_id")]
        )
        ops += totals["count"]
        sim_s = (sdb.sim_now_ns - start_ns) / 1e9

        agg_totals.append(totals)
        verified = verified and found_all
        hits = misses = 0
        for i in range(n):
            snap = sdb.shard_registry(i).snapshot().get("bufferpool", {})
            hits += snap.get("hit", 0)
            misses += snap.get("miss", 0)
        points.append(
            ShardPoint(
                n_shards=n,
                ops=ops,
                sim_s=sim_s,
                pool_hit_rate=hits / max(1, hits + misses),
                keys_moved=report.keys_moved,
            )
        )
    verified = verified and all(t == agg_totals[0] for t in agg_totals)
    return ShardScalingResult(
        n_rows=len(data.revision_rows),
        points=tuple(points),
        hot_shares_before=shares_before,
        hot_shares_after=shares_after,
        verified=verified,
    )


def main() -> None:
    from repro.experiments.runner import print_table

    result = run()
    base = result.point(1)
    print_table(
        ["shards", "measured ops", "sim time", "throughput", "speedup",
         "pool hit rate", "hot keys moved"],
        [
            (p.n_shards, p.ops, f"{p.sim_s * 1e3:.1f} ms",
             f"{p.throughput:,.0f} ops/s",
             f"{p.throughput / base.throughput:.1f}x",
             f"{p.pool_hit_rate:.0%}", p.keys_moved)
            for p in result.points
        ],
        title=(
            f"Sharded scale-out on the 10x Zipf wikipedia workload "
            f"({result.n_rows} rows, {POOL_PAGES} pool frames per shard, "
            f"simulated time; results verified identical: "
            f"{result.verified})"
        ),
    )
    fmt = lambda shares: " / ".join(f"{s:.0%}" for s in shares)  # noqa: E731
    print_table(
        ["fact", "value"],
        [
            ("hot-key traffic by shard, before rebalance",
             fmt(result.hot_shares_before)),
            ("hot-key traffic by shard, after rebalance",
             fmt(result.hot_shares_after)),
            ("max hot-key share after rebalance (gate: <= 40%)",
             f"{result.max_hot_share:.0%}"),
        ],
        title="Zipf-aware hot-key spreading at the widest sweep point",
    )


if __name__ == "__main__":
    main()
