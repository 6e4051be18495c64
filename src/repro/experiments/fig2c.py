"""Figure 2(c): caching overhead at a 100% buffer-pool hit rate.

The paper's point: even when *everything* is in RAM, index caching wins —
a cache hit skips the buffer-pool memory access entirely.  Claims:

* the ``cache`` line starts ~0.3 µs above ``nocache`` at a 0% hit rate
  (the probe overhead);
* the overhead "disappears when the cache hit rate exceeds 35%"
  (crossover);
* at 100% hit rate caching is ~2.7× faster.

Two reproductions:

* **analytic/simulated sweep** over imposed hit rates (like Fig. 2b);
* **engine validation** (:func:`run_engine`) — a real CachedBTree vs a
  real PlainIndex over the same heap with everything buffer-pool
  resident, measuring simulated cost per lookup at the cache's *natural*
  hit rate.  The speedup must land on the analytic curve.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import CachedBTree
from repro.experiments.runner import print_table, since
from repro.query.table import PlainIndex, Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.sim.cost_model import CostModel, CostPreset, PAPER_PRESET
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.util.rng import DeterministicRng
from repro.util.units import NS_PER_US
from repro.workload.distributions import ZipfianDistribution

CACHE_HIT_RATES = tuple(x / 100 for x in range(0, 101, 5))


@dataclass(frozen=True)
class Fig2cPoint:
    """One x-position: cost with and without the index cache."""

    cache_hit_rate: float
    cache_cost_us: float
    nocache_cost_us: float


@dataclass(frozen=True)
class Fig2cSummary:
    """The three headline numbers of the figure."""

    overhead_at_zero_us: float       # paper: ~0.3 us
    crossover_hit_rate: float        # paper: ~0.35
    speedup_at_full: float           # paper: ~2.7x


def run(
    preset: CostPreset = PAPER_PRESET,
    cache_hit_rates: tuple[float, ...] = CACHE_HIT_RATES,
) -> tuple[list[Fig2cPoint], Fig2cSummary]:
    """Analytic sweep at bp_hit_rate = 1.0."""
    model = CostModel(preset)
    nocache = model.expected_lookup_ns(0.0, 1.0, cached=False) / NS_PER_US
    points = [
        Fig2cPoint(
            cache_hit_rate=h,
            cache_cost_us=model.expected_lookup_ns(h, 1.0) / NS_PER_US,
            nocache_cost_us=nocache,
        )
        for h in cache_hit_rates
    ]
    crossover = next(
        (p.cache_hit_rate for p in points if p.cache_cost_us <= p.nocache_cost_us),
        1.0,
    )
    summary = Fig2cSummary(
        overhead_at_zero_us=points[0].cache_cost_us - nocache,
        crossover_hit_rate=crossover,
        speedup_at_full=nocache / points[-1].cache_cost_us,
    )
    return points, summary


@dataclass(frozen=True)
class EngineValidation:
    """Real-engine measurement at the cache's natural hit rate."""

    natural_hit_rate: float
    cache_cost_us: float
    nocache_cost_us: float
    predicted_cache_cost_us: float

    @property
    def speedup(self) -> float:
        return self.nocache_cost_us / self.cache_cost_us


_SCHEMA = Schema.of(
    ("id", UINT64),
    ("payload_a", UINT32),
    ("payload_b", UINT32),
    ("filler", char(40)),
)


def run_engine(
    n_rows: int = 4_000,
    n_lookups: int = 30_000,
    seed: int = 0,
) -> EngineValidation:
    """Drive real cached/uncached indexes, everything RAM-resident.

    Pools are sized to hold the whole database so every heap access is a
    buffer-pool *hit* — isolating exactly the effect Fig. 2c measures.
    The index pool is unhooked ("index fully in memory"); descents and
    probes are charged through the cached index's cost hooks, priced at
    the paper's preset.  Keys follow a Zipf(1.0) trace.
    """
    alpha, preset = 1.0, PAPER_PRESET
    def build(cost_model: CostModel, cached: bool):
        disk = SimulatedDisk(4096)
        index_pool = BufferPool(disk, 100_000)
        heap_pool = BufferPool(disk, 100_000, cost_hook=cost_model)
        heap = HeapFile(heap_pool)
        tree = BPlusTree(index_pool, key_size=8, value_size=8)
        if cached:
            index = CachedBTree(
                tree, heap, _SCHEMA, ("id",), ("payload_a", "payload_b"),
                rng=DeterministicRng(seed), cost_model=cost_model,
            )
        else:
            index = PlainIndex(tree, heap, _SCHEMA, ("id",))
        table = Table("t", _SCHEMA, heap)
        table.attach_index("pk", index)
        for i in range(n_rows):
            table.insert({
                "id": i, "payload_a": i % 97, "payload_b": i % 31,
                "filler": "x" * 20,
            })
        return index, heap_pool

    project = ("id", "payload_a", "payload_b")

    # nocache baseline — charge descents explicitly to mirror the model.
    model_nc = CostModel(preset)
    plain, pool_nc = build(model_nc, cached=False)
    zipf = ZipfianDistribution(n_rows, alpha, DeterministicRng(seed + 1))
    warm = [zipf.sample() for _ in range(n_lookups)]
    model_nc.reset()
    for key in warm:
        model_nc.on_index_descent()
        plain.lookup(key, project)
    nocache_us = model_nc.now_ns / n_lookups / NS_PER_US

    # cached index — warm the cache first, then measure.
    model_c = CostModel(preset)
    cached_idx, pool_c = build(model_c, cached=True)
    zipf2 = ZipfianDistribution(n_rows, alpha, DeterministicRng(seed + 1))
    for _ in range(n_lookups):
        cached_idx.lookup(zipf2.sample(), project)
    model_c.reset()
    before = copy(cached_idx.stats)
    for _ in range(n_lookups):
        cached_idx.lookup(zipf2.sample(), project)
    cache_us = model_c.now_ns / n_lookups / NS_PER_US
    hit_rate = since(cached_idx.stats, before).cache_answer_rate

    predicted = CostModel(preset).expected_lookup_ns(hit_rate, 1.0) / NS_PER_US
    return EngineValidation(
        natural_hit_rate=hit_rate,
        cache_cost_us=cache_us,
        nocache_cost_us=nocache_us,
        predicted_cache_cost_us=predicted,
    )


def main() -> None:
    points, summary = run()
    print_table(
        ["cache hit %", "cache (us)", "nocache (us)"],
        [
            (int(p.cache_hit_rate * 100), p.cache_cost_us, p.nocache_cost_us)
            for p in points
        ],
        title="Figure 2(c): per-lookup cost at buffer-pool hit rate 100%",
    )
    print(
        f"\noverhead at 0% hit: {summary.overhead_at_zero_us:.2f} us "
        f"(paper ~0.3)\ncrossover: {summary.crossover_hit_rate:.0%} "
        f"(paper ~35%)\nspeedup at 100%: {summary.speedup_at_full:.2f}x "
        f"(paper ~2.7x)"
    )
    validation = run_engine()
    print(
        f"\nengine validation: natural hit rate "
        f"{validation.natural_hit_rate:.1%}, cache "
        f"{validation.cache_cost_us:.3f} us vs nocache "
        f"{validation.nocache_cost_us:.3f} us -> {validation.speedup:.2f}x "
        f"(analytic prediction {validation.predicted_cache_cost_us:.3f} us)"
    )


if __name__ == "__main__":
    main()
