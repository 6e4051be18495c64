"""QueryProfiler: fingerprints, per-query deltas, WAL attribution,
slow-query log, and reconciliation with registry totals."""

import dataclasses

import pytest

from repro import Database, MetricsRegistry, Schema, UINT32, UINT64, char
from repro.errors import QueryError
from repro.obs.profiler import (
    CAPTURED_COUNTERS,
    COUNTS,
    DEFAULT_MAX_FINGERPRINTS,
    OVERFLOW_FINGERPRINT,
    QueryProfiler,
    _Counts,
    batch_bucket,
    fingerprint,
)
from repro.obs.tracer import Tracer

pytestmark = pytest.mark.obs

SCHEMA = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))


def _db(wal=False, **kwargs):
    db = Database(
        data_pool_pages=kwargs.pop("data_pool_pages", 64),
        seed=3,
        metrics=MetricsRegistry(),
        wal=wal,
        **kwargs,
    )
    t = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("k",))
    db.create_cached_index("t", "cache", ("k",), ("name", "n"))
    for i in range(100):
        t.insert({"k": i, "name": f"r{i}", "n": i % 7})
    return db, t


# -- fingerprints -----------------------------------------------------------


def test_batch_bucket_power_of_two_ceiling():
    assert [batch_bucket(n) for n in (0, 1, 2, 3, 4, 5, 8, 9, 1000)] == [
        1, 1, 2, 4, 4, 8, 8, 16, 1024,
    ]


def test_fingerprint_shape_never_values():
    fp = fingerprint("lookup", "t", "pk", ("k", "n"), batch=1)
    assert fp == "lookup:t.pk->k,n"
    assert fingerprint("lookup", "t", "pk", ("k", "n"), batch=6) == (
        "lookup:t.pk->k,n x8"
    )
    assert fingerprint("insert", "t") == "insert:t"


def test_fingerprint_stability_across_keys_and_batches():
    """Every key probed and every batch size in one power-of-two bucket
    lands on the same fingerprint — the profiler aggregates by shape."""
    db, t = _db()
    profiler = db.enable_profiling()
    for key in (1, 50, 99):
        t.lookup("pk", key, ("k", "n"))
    t.lookup_many("pk", [1, 2, 3], ("k", "n"))
    t.lookup_many("pk", [7, 8, 9, 10], ("k", "n"))
    fps = {s.fingerprint for s in profiler.top()}
    assert fps == {"lookup:t.pk->k,n", "lookup_many:t.pk->k,n x4"}
    scalar = profiler._stats.get("lookup:t.pk->k,n")
    assert scalar.calls == 3


def test_plan_names_the_index_kind():
    db, t = _db()
    profiler = db.enable_profiling()
    t.lookup("pk", 1, ("k", "n"))
    t.lookup("cache", 1, ("k", "n"))
    t.update("pk", 2, {"n": 1})
    assert profiler._stats.get("lookup:t.pk->k,n").plan == (
        "lookup t via plain-index(pk) project (k, n)"
    )
    assert profiler._stats.get("lookup:t.cache->k,n").plan == (
        "lookup t via cached-index(cache) project (k, n)"
    )
    assert profiler._stats.get("update:t.pk").plan == "update t via plain-index(pk)"


def test_enable_profiling_idempotent_and_propagates_to_new_tables():
    db, t = _db()
    profiler = db.enable_profiling()
    assert db.enable_profiling() is profiler
    t2 = db.create_table("t2", SCHEMA)
    assert t2.tracer.profiler is profiler
    assert db.tracer.profiler is profiler


# -- per-query deltas -------------------------------------------------------


def test_profile_counts_pages_and_cache_split():
    db, t = _db()
    profiler = db.enable_profiling()
    t.lookup("cache", 5, ("name", "n"))
    stats = profiler._stats.get("lookup:t.cache->name,n")
    assert stats is not None and stats.calls == 1
    # A warm-pool lookup pins pages without reading from disk.
    assert stats.pages_pinned > 0
    assert stats.pages_read == 0
    assert stats.pages_reused == stats.pages_pinned
    # First probe of a cold cache must be a miss.
    assert stats.cache_misses >= 1


def test_plain_index_heap_fetches_are_charged():
    db, t = _db()
    profiler = db.enable_profiling()
    t.lookup("pk", 42, ("k", "n"))
    stats = profiler._stats.get("lookup:t.pk->k,n")
    assert stats.heap_fetches == 1  # PlainIndex fetches the heap every time


def test_nested_operations_charge_to_outermost():
    db, t = _db()
    profiler = db.enable_profiling()
    with db.tracer.span("outer", profile=("outer", "t"), timed=False):
        t.lookup("pk", 1, ("k",))
        t.lookup("pk", 2, ("k",))
    assert profiler.operations == 1
    outer = profiler._stats.get("outer:t")
    assert outer.calls == 1
    assert outer.descents == 2  # both inner descents folded in
    assert profiler._stats.get("lookup:t.pk->k") is None


def test_error_operations_are_flagged_and_counted():
    db, t = _db()
    profiler = db.enable_profiling()
    with pytest.raises(QueryError):
        with db.tracer.span("boom", profile=("boom", "t"), timed=False):
            raise QueryError("kaput")
    assert profiler._stats.get("boom:t").errors == 1
    assert db.metrics.get("profiler.errors").value == 1
    (profile,) = profiler.slow_queries()
    assert profile.error and profile.line().startswith("#0 ")


def test_scan_bracket_covers_iteration():
    db, t = _db()
    profiler = db.enable_profiling()
    rows = list(t.scan(project=("k",)))
    assert len(rows) == 100
    stats = profiler._stats.get("scan:t->k")
    assert stats.calls == 1 and stats.pages_pinned > 0


# -- WAL attribution --------------------------------------------------------


def test_wal_bytes_attributed_under_group_commit():
    """A record parked in the group-commit buffer is still charged to the
    operation that logged it, not to the op that trips the flush."""
    db, t = _db(wal=True, wal_group_commit=64)  # nothing flushes mid-test
    profiler = db.enable_profiling()
    flushes_before = db.metrics.get("wal.flushes").value
    t.insert({"k": 1000, "name": "w", "n": 1})
    insert_stats = profiler._stats.get("insert:t")
    assert insert_stats.wal_bytes > 0
    # Really still buffered: the profiled insert tripped no flush.
    assert db.metrics.get("wal.flushes").value == flushes_before

    t.lookup("pk", 1000, ("k", "n"))
    lookup_stats = profiler._stats.get("lookup:t.pk->k,n")
    assert lookup_stats.wal_bytes == 0  # reads log nothing, flush or not


def test_wal_bytes_flush_timing_independent():
    """Same ops, different group-commit sizes: identical attribution."""

    def charged(group_commit):
        db, t = _db(wal=True, wal_group_commit=group_commit)
        profiler = db.enable_profiling()
        for i in range(10):
            t.insert({"k": 2000 + i, "name": "x", "n": i})
            t.update("pk", 2000 + i, {"n": i + 1})
        return {
            s.fingerprint: s.wal_bytes for s in profiler.top()
        }

    assert charged(1) == charged(64)


# -- reconciliation (acceptance) --------------------------------------------


def test_profiles_reconcile_with_registry_totals():
    """Sum of per-profile deltas == registry movement over the profiled
    span: pages pinned, cache hit/miss split, and WAL bytes."""
    db, t = _db(wal=True, wal_group_commit=8)
    reg = db.metrics
    before = {
        name: reg.get(name).value
        for name in (
            "bufferpool.hit", "bufferpool.miss",
            "index_cache.hit", "index_cache.miss",
        )
    }
    wal_before = db.wal.logged_bytes
    profiler = db.enable_profiling()
    for i in range(40):
        t.lookup("cache", i % 25, ("name", "n"))
        if i % 5 == 0:
            t.update("pk", i, {"n": 0})
    t.lookup_many("cache", [1, 2, 3, 1], ("name", "n"))

    top = profiler.top()
    pinned = sum(s.pages_pinned for s in top)
    reused = sum(s.pages_reused for s in top)
    read = sum(s.pages_read for s in top)
    hits = sum(s.cache_hits for s in top)
    misses = sum(s.cache_misses for s in top)
    wal_bytes = sum(s.wal_bytes for s in top)

    assert reused == reg.get("bufferpool.hit").value - before["bufferpool.hit"]
    assert read == reg.get("bufferpool.miss").value - before["bufferpool.miss"]
    assert pinned == reused + read
    assert hits == reg.get("index_cache.hit").value - before["index_cache.hit"]
    assert misses == (
        reg.get("index_cache.miss").value - before["index_cache.miss"]
    )
    assert wal_bytes == db.wal.logged_bytes - wal_before
    assert wal_bytes > 0  # the updates really logged something


# -- slow log and bounds ----------------------------------------------------


def _profiled(profiler, op, table):
    """One op bracket, opened the way the engine opens it: through a
    tracer the profiler is armed on."""
    tracer = Tracer(MetricsRegistry())
    tracer.arm(profiler=profiler)
    return tracer.span(op, profile=(op, table), timed=False)


def test_slow_log_ranked_and_bounded():
    profiler = QueryProfiler(MetricsRegistry(), slow_log_size=4)
    clock = [0.0]
    profiler._clock = lambda: clock[0]
    for cost in (5.0, 1.0, 9.0, 3.0, 7.0, 2.0):
        with _profiled(profiler, "op", "t"):
            clock[0] += cost
    slow = profiler.slow_queries()
    assert len(slow) == 4  # ring keeps the newest 4
    assert [p.elapsed_ns for p in slow] == sorted(
        (9.0, 3.0, 7.0, 2.0), reverse=True
    )
    assert profiler.slow_queries(2)[0].elapsed_ns == 9.0


def test_fingerprint_table_overflows_into_other():
    profiler = QueryProfiler(MetricsRegistry(), max_fingerprints=3)
    for i in range(6):
        with _profiled(profiler, "op", f"table_{i}"):
            pass
    fps = {s.fingerprint for s in profiler.top()}
    assert OVERFLOW_FINGERPRINT in fps
    assert len(fps) == 4  # 3 real + the overflow bucket
    assert profiler._stats.get(OVERFLOW_FINGERPRINT).calls == 3
    assert DEFAULT_MAX_FINGERPRINTS >= 3


def test_as_dict_and_format_top_render():
    db, t = _db()
    profiler = db.enable_profiling()
    t.lookup("pk", 1, ("k",))
    doc = profiler.as_dict()
    assert doc["operations"] == 1
    assert doc["top"][0]["fingerprint"] == "lookup:t.pk->k"
    text = profiler.format_top()
    assert "lookup:t.pk->k" in text
    assert "(no operations profiled)" in QueryProfiler(
        MetricsRegistry()
    ).format_top()


def test_fold_merges_rollups_by_fingerprint():
    """One profiler folds to its own rollup; two copies of it double every
    sum and keep every maximum."""
    db, t = _db(wal=True, wal_group_commit=4)
    profiler = db.enable_profiling()
    for i in range(30):
        t.lookup("cache", i % 12, ("name", "n"))
        if i % 3 == 0:
            t.update("pk", i, {"n": 1})
    t.lookup_many("pk", [1, 2, 3], ("k",))
    top = profiler.as_dict()["top"]
    assert QueryProfiler.fold([profiler]).as_dict()["top"] == top
    doubled = {
        row["fingerprint"]: row
        for row in QueryProfiler.fold([profiler, profiler]).as_dict()["top"]
    }
    assert len(doubled) == len(top) == 3
    summed = [name for name, _metric in CAPTURED_COUNTERS] + [
        "wal_bytes", "pages_pinned", "calls", "errors", "rows", "total_ns",
    ]
    for row in top:
        twice = doubled[row["fingerprint"]]
        assert {k: twice[k] for k in summed} == {k: 2 * row[k] for k in summed}
        assert twice["max_ns"] == row["max_ns"]
        assert twice["plan"] == row["plan"]
    assert any(row["wal_bytes"] for row in top)


def test_counts_are_the_count_fields_in_order():
    """The loops over ``COUNTS`` (capture, absorb, merge, export) cover
    exactly the fields ``_Counts`` declares."""
    assert COUNTS == tuple(f.name for f in dataclasses.fields(_Counts))


def test_profiling_off_by_default_and_opt_in():
    db, t = _db()
    assert db.tracer.profiler is None and t.tracer.profiler is None
    t.lookup("pk", 1, ("k",))  # no profiler: nothing recorded anywhere
    assert "profiler" not in db.metrics.snapshot()


# -- abandoned-scan bracket (regression) ------------------------------------
#
# A half-drained Table.scan iterator that is closed or garbage-collected
# without being exhausted used to leave the profiler bracket open (the
# GeneratorExit arrived *inside* the ``with tracer.span(...)``
# body): subsequent unrelated operations were mis-charged to the scan's
# fingerprint, and the abandoned scan itself was absorbed with
# ``error=True``.  The scan generator now converts GeneratorExit into a
# clean bracket close.


def test_abandoned_scan_closes_bracket_cleanly():
    db, t = _db()
    profiler = db.enable_profiling()
    it = t.scan()
    next(it)  # half-drain: the bracket is open
    it.close()
    assert profiler._depth == 0  # bracket closed by the close() path
    stats = profiler._stats.get("scan:t->k,name,n")
    assert stats is not None and stats.calls == 1
    assert stats.errors == 0  # abandoned is not failed
    assert "errors" not in db.metrics.snapshot().get("profiler", {}) or (
        db.metrics.snapshot()["profiler"]["errors"] == 0
    )


def test_gc_of_half_drained_scan_closes_bracket():
    import gc

    db, t = _db()
    profiler = db.enable_profiling()
    it = t.scan()
    next(it)
    del it  # refcount GC delivers GeneratorExit immediately (CPython)
    gc.collect()
    assert profiler._depth == 0
    assert db.metrics.snapshot()["profiler"]["errors"] == 0


def test_cyclic_gc_of_scan_does_not_mischarge_later_ops():
    """The worst case: the iterator is trapped in a reference cycle, so
    GeneratorExit only arrives at the next cyclic-GC pass.  Operations
    issued *before* that pass must still be charged to their own
    fingerprints once the cycle is collected."""
    import gc

    db, t = _db()
    profiler = db.enable_profiling()

    class Holder:
        pass

    holder = Holder()
    holder.it = t.scan()
    holder.self = holder  # cycle: survives refcounting
    next(holder.it)
    del holder
    gc.collect()  # delivers GeneratorExit through the cycle collector
    assert profiler._depth == 0
    before = profiler._stats.get("lookup:t.pk->k,name,n")
    t.lookup("pk", 3, ("k", "name", "n"))
    after = profiler._stats.get("lookup:t.pk->k,name,n")
    assert (after.calls - (before.calls if before else 0)) == 1
    scan_stats = profiler._stats.get("scan:t->k,name,n")
    assert scan_stats.errors == 0


def test_exhausted_scan_still_counts_once():
    db, t = _db()
    profiler = db.enable_profiling()
    rows = list(t.scan())
    assert len(rows) == 100
    stats = profiler._stats.get("scan:t->k,name,n")
    assert stats.calls == 1 and stats.errors == 0
    assert profiler._depth == 0
