"""MetricsRegistry: instrument semantics, naming, snapshots."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    bucket_index,
    bucket_upper_bound,
    get_default_registry,
    resolve_registry,
    use_registry,
)

pytestmark = pytest.mark.obs


def test_counter_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("a.b")
    assert c.value == 0
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ObservabilityError):
        c.inc(-1)
    assert c.value == 6  # rejected inc left the value untouched


def test_counter_is_shared_by_name():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    reg.counter("x").inc()
    assert reg.counter("x").value == 2


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("pool.resident")
    g.set(10)
    g.set(g.value - 3)
    assert g.value == 7.0


def test_type_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(ObservabilityError):
        reg.gauge("m")
    with pytest.raises(ObservabilityError):
        reg.histogram("m")


def test_name_prefix_collisions_rejected():
    reg = MetricsRegistry()
    reg.counter("a.b.c")
    with pytest.raises(ObservabilityError):
        reg.counter("a.b")  # interior node of an existing metric
    with pytest.raises(ObservabilityError):
        reg.counter("a.b.c.d")  # nests under an existing leaf


def test_bad_names_rejected():
    reg = MetricsRegistry()
    for bad in ("", ".x", "x.", "a..b"):
        with pytest.raises(ObservabilityError):
            reg.counter(bad)


def test_histogram_bucket_boundaries():
    # Bucket 0 is [*, 1); bucket i >= 1 is [2**(i-1), 2**i).
    assert bucket_index(0) == 0
    assert bucket_index(0.5) == 0
    assert bucket_index(1) == 1
    assert bucket_index(1.999) == 1
    assert bucket_index(2) == 2
    assert bucket_index(3.999) == 2
    assert bucket_index(4) == 3
    assert bucket_index(2**20) == 21
    assert bucket_index(2**20 - 1) == 20
    # everything past the last boundary clamps into the open-ended bucket
    assert bucket_index(2**200) == HISTOGRAM_BUCKETS - 1
    assert bucket_upper_bound(1) == 2.0
    assert bucket_upper_bound(HISTOGRAM_BUCKETS - 1) == float("inf")


def test_histogram_record_buckets_by_bucket_index():
    # ``record`` inlines the rule; ``bucket_index`` is its one statement.
    values = [0, 0.5, 1, 1.0, float(2**40) - 0.5, 2**62, 2**63, 2**64,
              2**200, 1e300]
    for k in range(1, 70):
        values += [2**k - 1, 2**k, float(2**k) * (1 - 2**-52)]
    for value in values:
        h = MetricsRegistry().histogram("h")
        h.record(value)
        counts = h.bucket_counts()
        assert counts.index(1) == bucket_index(value), value
        assert sum(counts) == 1


def test_histogram_summary_stats():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in (0.0, 1.0, 3.0, 100.0):
        h.record(v)
    assert h.count == 4
    assert h.sum == 104.0
    assert h.min == 0.0
    assert h.max == 100.0
    assert h.mean == 26.0
    nonzero = dict(h.nonzero_buckets())
    assert nonzero[1.0] == 1       # the 0.0
    assert nonzero[2.0] == 1       # the 1.0
    assert nonzero[4.0] == 1       # the 3.0
    assert nonzero[128.0] == 1     # the 100.0


def test_histogram_percentile_upper_bound():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    assert h.percentile(0.5) == 0.0
    for _ in range(99):
        h.record(1.0)
    h.record(1000.0)
    assert h.percentile(0.5) == 2.0
    assert h.percentile(1.0) == 1000.0  # clamped to observed max
    with pytest.raises(ObservabilityError):
        h.percentile(1.5)


def test_snapshot_nesting_and_types():
    reg = MetricsRegistry()
    reg.counter("bufferpool.hit").inc(3)
    reg.gauge("bufferpool.resident_pages").set(7)
    reg.histogram("span.lookup.ns").record(100.0)
    snap = reg.snapshot()
    assert snap["bufferpool"]["hit"] == 3
    assert snap["bufferpool"]["resident_pages"] == 7.0
    hist = snap["span"]["lookup"]["ns"]
    assert hist["count"] == 1
    assert hist["buckets"] == {"128": 1}


def test_to_json_round_trips():
    import json

    reg = MetricsRegistry()
    reg.counter("a.b").inc()
    assert json.loads(json.dumps(reg.snapshot())) == {"a": {"b": 1}}


def test_reset_zeroes_in_place():
    reg = MetricsRegistry()
    c = reg.counter("c")
    h = reg.histogram("h")
    c.inc(9)
    h.record(5.0)
    reg.reset()
    # cached references stay live and see the reset
    assert c.value == 0
    assert h.count == 0 and h.sum == 0.0
    c.inc()
    assert reg.counter("c").value == 1


def test_reset_leaves_level_gauges_live():
    """A gauge is a level its owner sets when state changes, not a count:
    after ``db.metrics.reset()`` the resident-page count, the pool knob
    and the open-transaction count still describe the engine."""
    from repro.query.database import Database
    from repro.schema import UINT32, Schema

    db = Database(data_pool_pages=64, wal=False)
    table = db.create_table("t", Schema.of(("id", UINT32), ("v", UINT32)))
    db.create_index("t", "pk", ("id",))
    table.insert({"id": 1, "v": 1})
    session = db.session()
    session.begin()
    resident = len(db.data_pool._frames)
    assert resident > 0
    db.metrics.reset()
    assert db.metrics.gauge("bufferpool.resident_pages").value == resident
    assert db.metrics.gauge("adaptive.knob.pool.data_pages").value == 64
    assert db.metrics.gauge("txn.active").value == 1
    # A pool hit moves no level: the gauge still reads the live count.
    assert table.lookup("pk", 1).found
    assert db.metrics.counter("bufferpool.hit").value > 0
    assert db.metrics.gauge("bufferpool.resident_pages").value == len(
        db.data_pool._frames
    )
    session.commit()
    assert db.metrics.gauge("txn.active").value == 0


def test_null_registry_is_inert():
    null = NullRegistry()
    c = null.counter("anything")
    c.inc(100)
    assert c.value == 0
    null.gauge("g").set(5)
    assert null.gauge("g").value == 0.0
    null.histogram("h").record(3.0)
    assert null.histogram("h").count == 0
    assert null.snapshot() == {}


def test_default_registry_scoping():
    assert get_default_registry() is NULL_REGISTRY
    assert resolve_registry(None) is NULL_REGISTRY
    reg = MetricsRegistry()
    with use_registry(reg):
        assert get_default_registry() is reg
        assert resolve_registry(None) is reg
        explicit = MetricsRegistry()
        assert resolve_registry(explicit) is explicit
    assert get_default_registry() is NULL_REGISTRY


def test_default_registry_restored_on_error():
    reg = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with use_registry(reg):
            raise RuntimeError("boom")
    assert get_default_registry() is NULL_REGISTRY
