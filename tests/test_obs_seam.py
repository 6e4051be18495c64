"""The op bracket contract (DESIGN.md §5k): one ``Tracer.span`` per
operation feeds the histogram, the profiler and the trace collector, is
armed once per engine, and keeps the historical asymmetries (what has a
``span.*`` series, what nests).  No operation calls the §5f controller:
it judges only the windows its driver feeds it."""

import itertools

import pytest

from repro import Database, MetricsRegistry, Schema, UINT32, UINT64, char
from repro.obs import NULL_REGISTRY, Tracer
from repro.query.executor import FkJoinCache
from repro.query.predicates import ColumnRange, Predicate
from repro.shard.database import ShardedDatabase
from repro.util.rng import DeterministicRng
from repro.wal.replay import recover

pytestmark = pytest.mark.obs

SCHEMA = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))
CHILD = Schema.of(("cid", UINT64), ("fk", UINT64), ("val", UINT32))


def _db(**kwargs):
    db = Database(
        data_pool_pages=64, seed=3, metrics=MetricsRegistry(), **kwargs
    )
    t = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("k",))
    for i in range(40):
        t.insert({"k": i, "name": f"r{i}", "n": i % 7})
    return db, t


def _span_counts(db):
    """``{op: samples}`` of every ``span.query.<op>.ns`` histogram."""
    return {
        name[len("span.query."):-len(".ns")]: instrument.count
        for name, instrument in db.metrics.items()
        if name.startswith("span.query.") and name.endswith(".ns")
    }


# -- (a) one bracket per op, every sink fed exactly once ---------------------


def test_every_op_is_observed_exactly_once_with_everything_armed():
    db, t = _db()
    child = db.create_table("child", CHILD)
    db.create_index("child", "child_pk", ("cid",))
    rids = [child.insert({"cid": c, "fk": c % 10, "val": c}) for c in range(6)]
    join = FkJoinCache(
        child, t, "pk", "fk", ("name", "n"), rng=DeterministicRng(2)
    )
    profiler = db.enable_profiling()
    collector = db.enable_tracing()
    controller = db.enable_adaptive()
    db.enable_columnar()

    pred = ColumnRange("n", 0, 3)
    specs = [("count", None), ("sum", "n")]
    # (label, call, profiled op, trace root, span.* sample)
    cases = [
        ("insert", lambda: t.insert({"k": 100, "name": "x", "n": 1}),
         "insert", "query.insert", "insert"),
        ("update", lambda: t.update("pk", 100, {"n": 2}),
         "update", "query.update", "update"),
        ("lookup", lambda: t.lookup("pk", 100),
         "lookup", "query.lookup", "lookup"),
        ("lookup_many", lambda: t.lookup_many("pk", [1, 2, 100]),
         "lookup_many", "query.lookup_many", "lookup_many"),
        ("delete", lambda: t.delete("pk", 100),
         "delete", "query.delete", "delete"),
        ("row scan", lambda: list(t.scan(pred, use_columnar=False)),
         "scan", None, None),
        ("columnar scan", lambda: list(t.scan(pred)),
         "scan", "query.scan", None),
        ("row aggregate", lambda: t.aggregate(specs, pred, use_columnar=False),
         "aggregate", "query.aggregate", None),
        ("columnar aggregate", lambda: t.aggregate(specs, pred),
         "aggregate", "query.aggregate", None),
        # A join has no span of its own; on a cold cache its parent
        # lookup nests inside the join's profile but still traces and
        # is timed as the lookup it is.
        ("join_fetch", lambda: join.join_fetch(rids[0], ("cid", "name")),
         "join", "query.lookup", "lookup"),
        ("join_fetch_many",
         lambda: join.join_fetch_many(rids[1:4], ("cid", "n")),
         "join_many", "query.lookup_many", "lookup_many"),
    ]
    for label, call, op, root, timed in cases:
        profiles = profiler.operations
        finished = len(collector.traces())
        spans = _span_counts(db)
        call()
        assert profiler.operations == profiles + 1, label
        newest = max(profiler.slow_queries(), key=lambda p: p.seq)
        assert (newest.op, newest.error) == (op, False), label
        new_traces = collector.traces()[finished:]
        assert [tr.root.name for tr in new_traces] == ([root] if root else []), label
        grown = {
            name: count - spans.get(name, 0)
            for name, count in _span_counts(db).items()
            if count != spans.get(name, 0)
        }
        assert grown == ({timed: 1} if timed else {}), label
        assert controller.stats.ticks == 0, label  # no op judges a window
        assert collector.active is None and profiler._depth == 0, label
    assert collector.active is None
    scan_trace = [tr for tr in collector.traces() if tr.root.name == "query.scan"]
    assert scan_trace[0].root.attrs == {"table": "t", "columnar": True}


def test_wal_flush_nests_inside_the_op_that_trips_it():
    db, t = _db(wal=True, wal_group_commit=1)
    collector = db.enable_tracing()
    t.insert({"k": 500, "name": "w", "n": 0})
    trace = collector.traces()[-1]
    assert trace.root.name == "query.insert"
    assert [s.name for s in trace.spans] == ["query.insert", "wal.flush"]


# -- (b) errors reach every sink once and unwind the bracket -----------------


class _Boom(Predicate):
    def matches(self, row):
        raise RuntimeError("boom")


def test_error_in_body_marks_every_sink_once_and_unwinds():
    db, t = _db()
    profiler = db.enable_profiling()
    collector = db.enable_tracing()
    t.index("pk").lookup = _raise
    with pytest.raises(RuntimeError):
        t.lookup("pk", 1)
    root = collector.traces()[-1].root
    assert (root.name, root.error) == ("query.lookup", True)
    (profile,) = [p for p in profiler.slow_queries() if p.error]
    assert profile.op == "lookup"
    value = lambda name: db.metrics.get(name).value  # noqa: E731
    assert value("span.query.lookup.errors") == 1
    assert value("profiler.errors") == 1
    assert value("trace.errors") == 1
    assert collector.active is None and profiler._depth == 0

    # The next op is charged to itself, not to a bracket left open.
    del t.index("pk").lookup
    t.lookup("pk", 2)
    assert profiler._stats.get("lookup:t.pk").calls == 2
    assert collector.traces()[-1].root.error is False
    assert value("span.query.lookup.errors") == 1

    # Untimed brackets (aggregate) deliver the flag the same way.
    with pytest.raises(RuntimeError):
        t.aggregate([("count", None)], _Boom())
    assert value("profiler.errors") == 2 and value("trace.errors") == 2
    assert collector.active is None and profiler._depth == 0


def _raise(*_args, **_kwargs):
    raise RuntimeError("boom")


# -- (c) armed once per engine: no per-table attach --------------------------


def test_tables_created_or_restored_later_are_observed():
    db, t = _db(wal=True)
    profiler = db.enable_profiling()
    collector = db.enable_tracing()
    late = db.create_table("late", SCHEMA)
    db.create_index("late", "late_pk", ("k",))
    late.insert({"k": 1, "name": "a", "n": 1})
    late.lookup("late_pk", 1)
    assert profiler._stats.get("insert:late").calls == 1
    assert profiler._stats.get("lookup:late.late_pk").calls == 1
    assert [tr.root.name for tr in collector.traces()[-2:]] == [
        "query.insert", "query.lookup",
    ]
    assert late.tracer is t.tracer is db.tracer

    # The WAL replayer's side door registers through the same path.
    adopted = db.restore_table("adopted", SCHEMA, late.heap.page_ids)
    db.restore_index("adopted", "adopted_pk", ("k",), (), 0.5)
    assert adopted.lookup("adopted_pk", 1).found
    assert profiler._stats.get("lookup:adopted.adopted_pk").calls == 1
    assert collector.traces()[-1].root.attrs == {"table": "adopted"}

    db.wal.flush()
    db2, _report = recover(db.wal, metrics=MetricsRegistry())
    profiler2 = db2.enable_profiling()
    collector2 = db2.enable_tracing()
    restored = db2.table("late")
    assert restored.lookup("late_pk", 1).found
    assert profiler2.operations == 1
    assert collector2.traces()[-1].root.name == "query.lookup"
    assert restored.tracer is db2.tracer


# -- (d) wiring does not depend on the order of the enable_* calls -----------


@pytest.mark.parametrize(
    "order",
    list(itertools.permutations(("events", "adaptive", "tracing", "profiling"))),
    ids="-".join,
)
def test_enable_order_does_not_change_the_wiring(order):
    db, t = _db(wal=True)
    db.recovery  # built before any enable_*, wired by enable_events
    for name in order:
        getattr(db, f"enable_{name}")()
    tracer = db.tracer
    assert tracer.profiler is db.tracer.profiler is not None
    assert tracer.trace is db.trace is not None
    assert db.adaptive is not None
    assert tracer.shard is None
    assert tracer.journal is db.journal is not None
    assert db.adaptive.journal is db.journal
    assert db.journal.trace_source is db.trace
    assert db.wal.tracer is tracer and t.tracer is tracer
    # Every emitter reaches the one journal, whatever the order.
    db.checkpoint()
    assert db.recovery.heal(min(t.index("pk").tree.leaf_page_ids))
    (checkpoint,) = db.journal.query(kind="wal.checkpoint")
    (healed,) = db.journal.query(kind="fault.recovered")
    assert checkpoint.shard is None and healed.shard is None
    assert dict(healed.payload)["action"] == "index_rebuild"


@pytest.mark.parametrize("events_first", [True, False],
                         ids=["events-then-tracing", "tracing-then-events"])
def test_each_shard_journals_under_its_own_id(events_first):
    sdb = ShardedDatabase(2, seed=3, wal=True)
    arms = [sdb.enable_events, sdb.enable_tracing]
    for arm in arms if events_first else arms[::-1]:
        arm()
    sdb.checkpoint()
    checkpoints = sdb.journal.query(kind="wal.checkpoint")
    assert [e.shard for e in checkpoints] == [0, 1]
    for i, db in enumerate(sdb.shards):
        assert db.journal is sdb.journal and db.tracer.shard == i


# -- the inert tracer ---------------------------------------------------------


def test_tracer_without_registry_or_clock_is_inert():
    """``Tracer`` on the null registry with no clock is the null tracer:
    spans nest but measure zero and export nothing — and with no sink
    armed, sink arguments go nowhere."""
    tracer = Tracer(NULL_REGISTRY)
    with tracer.span("anything", profile=("op", "t"), trace={"table": "t"}):
        with tracer.span("nested"):
            pass
    assert tracer._clock() == 0.0  # what both spans read: each measures zero
    assert tracer.registry.snapshot() == {}
