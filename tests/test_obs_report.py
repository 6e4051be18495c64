"""Export surfaces: format_report, export_json, derived rates, and
whole-engine snapshot determinism under the seeded RNG."""

import json

import pytest

from repro import (
    Database,
    MetricsRegistry,
    NULL_REGISTRY,
    Schema,
    UINT32,
    UINT64,
    char,
    format_report,
    export_json,
)
from repro.obs import derived_rates
from repro.util.rng import DeterministicRng

pytestmark = pytest.mark.obs


def _drive_workload(metrics=None, seed=7):
    """A small but full workload: inserts, hot lookups, updates, deletes."""
    db = Database(data_pool_pages=64, seed=seed, metrics=metrics)
    schema = Schema.of(("k", UINT64), ("payload", char(12)), ("n", UINT32))
    t = db.create_table("t", schema)
    db.create_index("t", "pk", ("k",))
    db.create_cached_index("t", "by_payload", ("payload",), cached_fields=("n",))
    for i in range(300):
        t.insert({"k": i, "payload": f"row{i:08d}", "n": i % 17})
    rng = DeterministicRng(seed)
    for _ in range(500):
        t.lookup("by_payload", f"row{rng.randrange(300):08d}", ("payload", "n"))
    for i in range(0, 50, 5):
        t.update("pk", i, {"n": 999})
    for i in range(250, 260):
        t.delete("pk", i)
    return db


def test_derived_hit_rates():
    reg = MetricsRegistry()
    reg.counter("bufferpool.hit").inc(3)
    reg.counter("bufferpool.miss").inc(1)
    reg.counter("lonely.hit").inc(2)  # no miss sibling -> no rate
    reg.gauge("other.hit").set(1)     # not a counter pair -> no rate
    reg.counter("other.miss").inc(1)
    rates = derived_rates(reg)
    assert rates == {"bufferpool.hit_rate": 0.75}


def test_format_report_shows_each_subsystem():
    db = _drive_workload()
    text = format_report(db.metrics)
    assert "engine metrics — bufferpool" in text
    assert "engine metrics — btree" in text
    assert "engine metrics — index_cache" in text
    assert "bufferpool.hit_rate" in text
    assert "span.query.lookup.ns" in text


def test_format_report_empty_registry():
    assert "(no metrics recorded)" in format_report(MetricsRegistry())


def test_export_json_document_shape(tmp_path):
    db = _drive_workload()
    path = tmp_path / "BENCH_obs.json"
    text = export_json(db.metrics, path=path, label="workload")
    on_disk = json.loads(path.read_text())
    assert json.loads(text) == on_disk
    assert on_disk["label"] == "workload"
    assert on_disk["metrics"]["bufferpool"]["hit"] > 0
    assert on_disk["metrics"]["btree"]["insert"] > 0
    assert on_disk["metrics"]["index_cache"]["lookup"] == 500
    assert 0.0 <= on_disk["derived"]["index_cache.hit_rate"] <= 1.0


def test_histogram_percentile_upper_bound_estimate():
    from repro.errors import ObservabilityError

    reg = MetricsRegistry()
    hist = reg.histogram("lat")
    assert hist.percentile(0.5) == 0.0  # empty distribution
    for v in (1, 1, 1, 1, 100):
        hist.record(v)
    # Bucketed: an upper estimate from log2 bucket bounds (1 -> <=2).
    assert hist.percentile(0.5) == 2.0
    # The top bucket is capped at the observed max, not its bound.
    assert hist.percentile(0.99) == 100.0
    assert hist.percentile(0.0) == 2.0 and hist.percentile(1.0) == 100.0
    with pytest.raises(ObservabilityError):
        hist.percentile(1.5)
    with pytest.raises(ObservabilityError):
        reg.histogram("empty").percentile(-0.1)  # validated even when empty


def test_format_report_includes_percentiles():
    reg = MetricsRegistry()
    for v in (1, 2, 4, 80):
        reg.histogram("span.q.ns").record(v)
    text = format_report(reg)
    assert "p50<=" in text and "max=80" in text


def test_derived_rates_throughput_and_zero_duration_guard():
    reg = MetricsRegistry()
    reg.counter("wal.bytes").inc(500)
    # Hit rates only (none here): throughput is the sampler's windows.
    assert derived_rates(reg) == {}


def test_snapshot_deterministic_under_seeded_rng():
    first = _drive_workload(metrics=MetricsRegistry(), seed=11)
    second = _drive_workload(metrics=MetricsRegistry(), seed=11)
    assert first.metrics.snapshot() == second.metrics.snapshot()
    # and a different seed produces a different cache trajectory
    third = _drive_workload(metrics=MetricsRegistry(), seed=12)
    assert first.metrics.snapshot() != third.metrics.snapshot()


def test_null_registry_workload_is_bit_identical():
    """Observability off must not perturb engine behaviour at all."""
    observed = _drive_workload(metrics=MetricsRegistry(), seed=3)
    silent = _drive_workload(metrics=NULL_REGISTRY, seed=3)
    assert silent.metrics.snapshot() == {}
    # identical engine-side outcomes, byte for byte on disk
    observed.data_pool.flush_all()
    silent.data_pool.flush_all()
    pages_a = [
        observed.disk.read_page(i) for i in range(observed.disk.num_pages)
    ]
    pages_b = [
        silent.disk.read_page(i) for i in range(silent.disk.num_pages)
    ]
    assert pages_a == pages_b
    idx_a = observed.table("t").index("by_payload")
    idx_b = silent.table("t").index("by_payload")
    assert idx_a.stats == idx_b.stats
