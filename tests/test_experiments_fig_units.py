"""Unit-level checks on the experiment result structures."""

import pytest

from repro.experiments.fig2a import Fig2aPoint
from repro.experiments.fig2c import Fig2cPoint, Fig2cSummary
from repro.experiments.fig3 import Fig3Config, Fig3Row


def test_fig2a_point_penalty():
    p = Fig2aPoint(
        cache_pct=25, swap_hit_rate=0.80, shrink_hit_rate=0.74,
        oracle_hit_rate=0.86,
    )
    assert p.shrink_penalty == pytest.approx(0.06)


def test_fig2c_structures():
    p = Fig2cPoint(cache_hit_rate=0.5, cache_cost_us=0.7, nocache_cost_us=0.9)
    assert p.cache_cost_us < p.nocache_cost_us
    s = Fig2cSummary(
        overhead_at_zero_us=0.3, crossover_hit_rate=0.35, speedup_at_full=2.7
    )
    assert 0 < s.crossover_hit_rate < 1


def test_fig3_config_defaults_are_consistent():
    config = Fig3Config()
    assert config.warmup_lookups < config.n_lookups + config.warmup_lookups
    assert config.pool_pages > 0
    assert config.n_pages * config.revisions_per_page_mean > config.pool_pages


def test_fig3_row_speedup_semantics():
    row = Fig3Row(
        label="x", cost_ms_per_lookup=1.0, disk_reads_per_lookup=0.1,
        index_bytes=100, speedup=2.0,
    )
    assert row.speedup == 2.0
