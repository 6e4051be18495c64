"""Small-config runs of every experiment driver.

These are smoke + shape tests: tiny workloads, loose assertions.  The full
paper-scale claims are asserted by ``benchmarks/``; the engine drivers
(columnar, shard) have no bench there, so their deterministic
facts are literals here.
"""

import pytest

from repro.experiments import (
    ablations,
    capacity,
    columnar,
    encoding_waste,
    fig2a,
    fig2b,
    fig2c,
    fig3,
    fill_factor,
    headline,
    shard,
)
from repro.experiments.runner import oracle_hit_rate, print_table


def test_oracle_hit_rate_shape():
    assert oracle_hit_rate(100, 1.0, 0.0) == 0.0
    assert oracle_hit_rate(100, 1.0, 1.0) == 1.0
    assert 0 < oracle_hit_rate(100, 1.0, 0.25) < 1
    # standard-zipf fact: alpha=0.5 oracle at 25% capacity is ~50%
    assert oracle_hit_rate(10_000, 0.5, 0.25) == pytest.approx(0.5, abs=0.01)


def test_print_table_returns_text(capsys):
    text = print_table(["a", "b"], [(1, 2.5)], title="t")
    out = capsys.readouterr().out
    assert "a" in text and "2.500" in text
    assert text in out


def test_fig2a_small():
    points = fig2a.run(n_items=500, n_lookups=4000, alpha=1.0,
                       sizes_pct=(10, 50), seed=1)
    assert len(points) == 2
    assert points[0].swap_hit_rate < points[1].swap_hit_rate  # monotone
    for p in points:
        assert p.shrink_hit_rate <= p.swap_hit_rate + 0.02
        assert p.swap_hit_rate <= p.oracle_hit_rate + 0.05


def test_fig2b_small():
    points = fig2b.run(lookups_per_point=500, seed=1,
                       bp_hit_rates=(0.0, 1.0), cache_hit_rates=(0.0, 0.5, 1.0))
    assert len(points) == 6
    for p in points:
        # monte carlo tracks the closed form
        assert p.cost_ms_simulated == pytest.approx(
            p.cost_ms_analytic, rel=0.25, abs=0.001
        )
    by_key = {(p.bp_hit_rate, p.cache_hit_rate): p for p in points}
    # disk dominates at bp=0, vanishes at full cache hit rate
    assert by_key[(0.0, 0.0)].cost_ms_analytic > 100 * by_key[(1.0, 0.0)].cost_ms_analytic
    assert by_key[(0.0, 1.0)].cost_ms_analytic == pytest.approx(
        by_key[(1.0, 1.0)].cost_ms_analytic
    )


def test_fig2c_summary_matches_paper_shape():
    points, summary = fig2c.run()
    assert summary.overhead_at_zero_us == pytest.approx(0.3, abs=0.02)
    assert 0.30 <= summary.crossover_hit_rate <= 0.40
    assert summary.speedup_at_full == pytest.approx(2.7, abs=0.1)
    costs = [p.cache_cost_us for p in points]
    assert costs == sorted(costs, reverse=True)  # monotone decreasing


def test_fig2c_engine_validation_small():
    v = fig2c.run_engine(n_rows=400, n_lookups=3000, seed=2)
    assert 0 < v.natural_hit_rate <= 1
    assert v.speedup > 1.3
    assert v.cache_cost_us == pytest.approx(v.predicted_cache_cost_us, rel=0.2)


def test_fig3_small_shape():
    rows = fig3.run(
        fig3.Fig3Config(
            n_pages=150, revisions_per_page_mean=8, n_lookups=1500,
            warmup_lookups=500, pool_pages=24, seed=3,
        )
    )
    assert [r.label for r in rows] == [
        "0% clustered", "54% clustered", "100% clustered", "Partition",
    ]
    base, half, full, part = rows
    assert base.speedup == 1.0
    assert part.cost_ms_per_lookup < full.cost_ms_per_lookup
    assert full.cost_ms_per_lookup < base.cost_ms_per_lookup
    assert part.index_bytes < base.index_bytes


def test_capacity_analytic_matches_paper_constants():
    a = capacity.analytic()
    assert a.cache_items == pytest.approx(7.9e6, rel=0.15)
    assert a.tuple_coverage > 0.6


def test_capacity_measured_small():
    m = capacity.run_measured(n_pages=400, n_lookups=4000, seed=4)
    assert 0.5 < m.leaf_fill_factor < 0.85
    assert m.cache_capacity > 0
    assert m.trace_hit_rate > 0.5
    assert m.answered_from_cache > 0.5


def test_encoding_waste_small():
    result = encoding_waste.run(
        n_pages=100, revisions_per_page=3, n_cartel=200, n_text=300, seed=5
    )
    by_table = {r.table: r for r in result.reports}
    for name in ("wikipedia.revision", "wikipedia.page", "cartel.readings"):
        assert 0.16 <= by_table[name].waste_fraction <= 0.9, name
    assert by_table["wikipedia.text"].waste_fraction < 0.05
    assert 0.05 < result.total_waste_fraction < 0.5


def test_fill_factor_small():
    result = fill_factor.run(n_keys=3000, churn_ops=3000, seed=6)
    assert 0.6 < result.random_insert_fill < 0.85
    assert result.bulk_load_fill == pytest.approx(0.68, abs=0.05)
    assert result.churn_final_fill < result.churn_initial_fill


def test_headline_small():
    result = headline.run(
        n_pages=80, revisions_per_page=10, seed=7,
        measure_query_speedup=False,
    )
    assert result.memory_reduction > 3
    assert result.optimized_ram_bytes < result.baseline_ram_bytes


def test_ablation_policies_small():
    rows = ablations.run_policy_ablation(n_rows=600, n_lookups=2500, seed=8)
    by_name = {r.policy: r for r in rows}
    assert set(by_name) == {"SwapPolicy", "RandomPolicy", "LruPolicy"}
    for r in rows:
        assert 0 < r.hit_rate_stable <= 1
        assert 0 < r.hit_rate_growth <= 1


def test_ablation_threshold_small():
    rows = ablations.run_threshold_ablation(
        thresholds=(2, 512), n_rows=500, n_ops=2000, seed=9
    )
    small, big = rows
    assert small.full_invalidations > big.full_invalidations
    assert big.hit_rate >= small.hit_rate


def test_ablation_vertical_small():
    v = ablations.run_vertical_ablation(
        n_pages=60, revisions_per_page=3, n_lookups=400, seed=10
    )
    assert v.measured_bytes_split < v.measured_bytes_unsplit
    assert v.predicted_bytes_split == pytest.approx(
        v.measured_bytes_split, rel=0.35
    )


def test_ablation_routing_small():
    results = ablations.run_routing_ablation(sizes=(1000,), seed=11)
    assert results[0].agree
    assert results[0].lookup_table_bytes > 0
    assert results[0].embedded_bytes == 0


def test_columnar_small():
    r = columnar.run(n_rows=800, n_queries=10, seed=1, segment_rows=128)
    assert r.verified  # both executors agreed on every shape
    assert r.compression_ratio > 1.0
    assert 0 < r.cache_hit_rate <= 1
    # Wall time is judged by ``python3 -m bench --compare``; here only the
    # sanity direction: the batch kernels are not slower than the rows.
    assert r.scan_speedup_cold > 1.0
    assert r.agg_speedup_cold > 1.0
    # The seeded table's row-format and encoded sizes, to the byte: more
    # encoded bytes means a column codec stopped engaging.
    assert (r.raw_bytes, r.encoded_bytes) == (16_128, 3_264)


def test_shard_small_scales_out_and_spreads_hot_keys():
    """The §5i claim at a quarter scale: one shard's partition thrashes
    its pool, a 4-shard partition fits.  Simulated time is deterministic,
    so the per-point microseconds are literals."""
    r = shard.run(
        shard_counts=(1, 4), n_pages=750, trace_len=1_000, pool_pages=16
    )
    assert r.verified  # every key found, same aggregates at every width
    assert r.point(4).throughput / r.point(1).throughput >= 3.0  # speedup
    assert r.max_hot_share <= 0.40
    assert [
        (p.n_shards, p.ops, round(p.sim_s * 1e6, 1), p.keys_moved)
        for p in r.points
    ] == [(1, 16_000, 7_238_650.8, 0), (4, 16_000, 923_488.0, 109)]


# -- literal pins for the drivers that hand-wire an index over pools ---------
#
# Taken on the parent of the PR that moved these drivers' row writes onto
# ``Table`` and unedited since: the same heap, tree, invalidation and RNG
# calls in the same order leave every number below as it was.


def _record_instances(monkeypatch, module, *class_names):
    """Every instance ``module`` builds of the named classes, in order."""
    made = {name: [] for name in class_names}
    for name in class_names:
        base = getattr(module, name)

        def __init__(self, *args, _base=base, _made=made[name], **kwargs):
            _base.__init__(self, *args, **kwargs)
            _made.append(self)

        monkeypatch.setattr(
            module, name, type(name, (base,), {"__init__": __init__})
        )
    return made


def _index_facts(index):
    s = index.stats
    return (
        s.heap_fetches, s.cache_fills, index.cache_capacity_total(),
        index.cached_item_count(),
    )


def _pool_facts(pool):
    return (pool.hits, pool.misses)


def test_capacity_measured_pinned(monkeypatch):
    made = _record_instances(monkeypatch, capacity, "CachedBTree", "BufferPool")
    m = capacity.run_measured(n_pages=400, n_lookups=4000, seed=4)
    assert m == capacity.MeasuredCapacity(
        page_table_tuples=400, leaf_fill_factor=0.729064039408867,
        free_bytes=5500, item_size=26, cache_capacity=206,
        tuple_coverage=0.515, trace_hit_rate=0.8665,
        answered_from_cache=0.8665,
    )
    assert [_index_facts(i) for i in made["CachedBTree"]] == [
        (618, 618, 206, 158)
    ]
    assert [_pool_facts(p) for p in made["BufferPool"]] == [(14134, 0)]


def test_ablation_policies_pinned(monkeypatch):
    made = _record_instances(monkeypatch, ablations, "CachedBTree", "BufferPool")
    rows = ablations.run_policy_ablation(n_rows=600, n_lookups=2500, seed=8)
    assert [(r.policy, r.hit_rate_stable, r.hit_rate_growth) for r in rows] == [
        ("SwapPolicy", 0.7224, 0.6864),
        ("RandomPolicy", 0.6144, 0.6412),
        ("LruPolicy", 0.67, 0.6648),
    ]
    # per policy: the stable-phase build, then the growth-phase build
    assert [_index_facts(i) for i in made["CachedBTree"]] == [
        (1498, 1498, 121, 121), (1588, 1546, 243, 241),
        (1953, 1953, 121, 121), (1886, 1844, 243, 241),
        (1695, 1695, 121, 121), (1708, 1666, 243, 240),
    ]
    assert [_pool_facts(p) for p in made["BufferPool"]] == [
        (18704, 0), (21209, 0), (19159, 0), (21507, 0), (18901, 0), (21329, 0),
    ]


def test_ablation_threshold_pinned(monkeypatch):
    """The one driver that updates rows through a cached index."""
    made = _record_instances(monkeypatch, ablations, "CachedBTree", "BufferPool")
    rows = ablations.run_threshold_ablation(
        thresholds=(2, 512), n_rows=500, n_ops=2000, seed=9
    )
    assert [
        (r.threshold, r.hit_rate, r.full_invalidations, r.pages_zeroed)
        for r in rows
    ] == [(2, 0.21567537520844915, 67, 337), (512, 0.29961089494163423, 0, 187)]
    assert [_index_facts(i) for i in made["CachedBTree"]] == [
        (2193, 2193, 342, 13), (2042, 2042, 342, 42)
    ]
    assert [_pool_facts(p) for p in made["BufferPool"]] == [
        (16402, 0), (16251, 0)
    ]


def test_ablation_covering_pinned(monkeypatch):
    made = _record_instances(
        monkeypatch, ablations, "CachedBTree", "CoveringIndex", "BufferPool"
    )
    rows = ablations.run_covering_ablation(
        n_rows=500, n_lookups=1500, pool_pages=12, seed=12
    )
    assert [
        (r.approach, r.index_bytes, r.answered_from_index,
         r.disk_reads_per_lookup)
        for r in rows
    ] == [
        ("cached index (paper)", 20480, 0.49933333333333335, 0.116),
        ("covering index", 36864, 0.684, 0.22133333333333333),
    ]
    assert [_index_facts(i) for i in made["CachedBTree"]] == [
        (1495, 1495, 181, 176)
    ]
    assert [
        (i.stats.heap_fetches, i.stats.answered_from_index)
        for i in made["CoveringIndex"]
    ] == [(914, 1026)]
    # a 12-page pool thrashes, so the disk counts too: reads, writes (the
    # pool counts the whole run, so every miss is one of the disk's reads)
    assert [
        _pool_facts(p) + (p.disk.reads, p.disk.writes)
        for p in made["BufferPool"]
    ] == [(11935, 362, 362, 12), (11137, 694, 694, 18)]


def test_fig2c_engine_pinned(monkeypatch):
    made = _record_instances(
        monkeypatch, fig2c, "CachedBTree", "PlainIndex", "BufferPool"
    )
    v = fig2c.run_engine(n_rows=400, n_lookups=3000, seed=2)
    assert v == fig2c.EngineValidation(
        natural_hit_rate=0.652, cache_cost_us=0.626236, nocache_cost_us=0.885,
        predicted_cache_cost_us=0.626236,
    )
    assert [_index_facts(i) for i in made["CachedBTree"]] == [
        (2281, 2281, 229, 203)
    ]
    assert [(i.lookups, i.heap_fetches) for i in made["PlainIndex"]] == [
        (3000, 3000)
    ]
    # plain build: index pool, heap pool; cached build: index pool, heap pool
    assert [_pool_facts(p) for p in made["BufferPool"]] == [
        (10001, 0), (3394, 0), (19007, 0), (2675, 0)
    ]
