"""The facade's fan-out with nothing armed is pinned before its bracket is
rewritten.

``tests/test_shard_fanout_pins.py`` replays its seeded mix with tracing,
the event journal and the fleet rollup armed.  ``bench`` runs the facade
with none of them, and recovery off, so the bracket's unarmed path is
pinned here on the same three-shard zipf fleet (WAL on, eight 512-byte
frames per shard) and the same mix: every routed and broadcast arm of
``lookup`` / ``update`` / ``delete``, ``insert``, ``lookup_many`` over
routing and non-routing batches, ``scan``, ``aggregate``, two
``rebalance()`` passes and two ops whose shard call raises inside the
bracket.

What is pinned: every result in order, the facade's parallel clock, each
shard's own clock, the fan-out counters, the router's route count, the
merged snapshot, each shard's WAL device bytes, and what the two raising
ops charged and counted.  The literals were taken before the bracket was
rewritten and must not be edited.
"""

import hashlib

import pytest

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry
from repro.query.predicates import ColumnEq, ColumnRange
from repro.shard.database import ShardedDatabase
from repro.util.rng import DeterministicRng
from tests.test_shard_fanout_pins import (
    MISSING,
    N_SHARDS,
    SCHEMA,
    _digest,
    _row,
    _tag,
)

pytestmark = pytest.mark.shard


def _fanout(metrics: MetricsRegistry, sdb: ShardedDatabase) -> tuple:
    """(shard.fanout.ops, fan-out width count, its sum, shard.router.routes,
    the facade's parallel clock)"""
    widths = metrics.get("shard.fanout.shards")
    return (
        metrics.get("shard.fanout.ops").value,
        widths.count,
        widths.sum,
        metrics.get("shard.router.routes").value,
        sdb.sim_now_ns,
    )


def test_unarmed_mix_replays_results_clocks_counters_and_wal_bytes():
    metrics = MetricsRegistry()
    sdb = ShardedDatabase(
        N_SHARDS, mode="zipf", wal=True, data_pool_pages=8, page_size=512,
        seed=23, metrics=metrics,
    )
    table = sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    sdb.create_cached_index("t", "by_tag", ("tag",), cached_fields=("n",))
    assert (sdb.trace, sdb.journal, sdb.rollup) == (None, None, None)

    results = hashlib.sha256()
    noted = 0

    def note(value) -> None:
        nonlocal noted
        noted += 1
        results.update(repr(value).encode())

    def owned_by(shard: int, skip=()) -> int:
        return next(
            i for i in live
            if i not in skip and sdb.router.placement(i) == shard
        )

    live = list(range(420))
    for i in live:
        note(table.insert(_row(i)))
    hot = [3, 8, 21, 55, 144, 233, 377]
    next_id = 420
    rng = DeterministicRng(2023)
    for step in range(900):
        if step in (300, 700):
            intents = metrics.get("shard.migration.intents").value
            report = sdb.rebalance()
            # (keys planned, keys moved, rows moved): every planned key
            # moves, and each row moved logs one migration intent
            rows_moved = metrics.get("shard.migration.intents").value - intents
            note((report.keys_moved, report.keys_moved, rows_moved))
            assert report.keys_moved > 0
        draw = rng.random()
        if rng.random() < 0.5:
            i = hot[rng.randrange(len(hot))]
        else:
            i = live[rng.randrange(len(live))]
        if draw < 0.30:
            note(table.lookup("pk", i, ("id", "n")))
        elif draw < 0.36:
            note(table.lookup("pk", MISSING + step))
        elif draw < 0.46:
            note(table.lookup("by_tag", _tag(i), ("n",)))
        elif draw < 0.50:
            note(table.lookup("by_tag", _tag(MISSING + step) + 1))
        elif draw < 0.58:
            batch = [live[rng.randrange(len(live))] for _ in range(5)]
            batch += [batch[0], MISSING + step, hot[step % len(hot)]]
            note(table.lookup_many("pk", batch, ("id", "n")))
        elif draw < 0.61:
            batch = [_tag(live[rng.randrange(len(live))]) for _ in range(3)]
            batch += [batch[1], _tag(MISSING + step) + 1]
            note(table.lookup_many("by_tag", batch, ("n",)))
        elif draw < 0.71:
            note(table.insert(_row(next_id)))
            live.append(next_id)
            next_id += 1
        elif draw < 0.79:
            note(table.update("pk", i, {"n": rng.randrange(250)}))
        elif draw < 0.83:
            note(table.update("by_tag", _tag(i), {"n": rng.randrange(250)}))
        elif draw < 0.85:
            note(table.update("pk", MISSING + step, {"n": 1}))
        elif draw < 0.89:
            if i in hot:
                i = live[rng.randrange(len(live))]
            if i not in hot:
                live.remove(i)
                index, key = ("pk", i) if step % 2 else ("by_tag", _tag(i))
                note(table.delete(index, key))
        elif draw < 0.91:
            note(table.delete("by_tag", _tag(MISSING + step) + 1))
        elif draw < 0.96:
            predicate = ColumnRange("n", 20 + step % 50, 60 + step % 50)
            note(list(table.scan(predicate, ("n", "cat"))))
        else:
            specs = [("count", None), ("sum", "n"), ("avg", "n"), ("max", "n")]
            note(table.aggregate(specs, ColumnEq("cat", f"c{step % 5}")))

    # Every broadcast arm: answered by shard 0, by the last shard, by nobody.
    first = owned_by(0, skip=hot)
    last = owned_by(N_SHARDS - 1, skip=hot)
    nowhere = _tag(MISSING) + 1
    for key in (_tag(first), _tag(last), nowhere):
        note(table.lookup("by_tag", key))
        note(table.lookup("by_tag", key, ("n", "cat")))
        note(table.update("by_tag", key, {"cat": "zz"}))
    note(table.lookup_many("by_tag", [_tag(last), nowhere, _tag(first)]))
    for key in (_tag(first), _tag(last), nowhere):
        note(table.delete("by_tag", key))
        note(table.lookup("by_tag", key))
    live.remove(first)
    live.remove(last)
    # ... and the routed ones on the same three placements.
    first, last = owned_by(0, skip=hot), owned_by(N_SHARDS - 1, skip=hot)
    for key in (first, last, MISSING):
        note(table.lookup("pk", key))
        note(table.update("pk", key, {"cat": "yy"}))
        note(table.delete("pk", key))
        note(table.lookup("pk", key, ("cat",)))
    live.remove(first)
    live.remove(last)

    note(list(table.scan(project=("cat",))))
    note(list(table.scan(ColumnEq("cat", "c1"), ("n",), use_columnar=False)))
    note(list(table.scan(ColumnRange("n", lo=10**6), ("n", "cat"))))
    empty = table.aggregate(
        [("avg", "n"), ("min", "n")], ColumnRange("n", lo=10**6)
    )
    assert empty == {"avg(n)": None, "min(n)": None}
    note(empty)
    note(table.aggregate([("avg", "n"), ("min", "n"), ("count", None)]))
    note(table.lookup_many("pk", []))

    # Two ops whose shard call raises inside the bracket: the bracket still
    # charges the clock and counts the fan-out (and the route).
    before_raising = _fanout(metrics, sdb)
    with pytest.raises(ReproError) as dup:
        table.insert(_row(live[0]))
    note(type(dup.value).__name__)
    after_insert = _fanout(metrics, sdb)
    with pytest.raises(ReproError) as unknown:
        table.update("no_such_index", 1, {"n": 1})
    note(type(unknown.value).__name__)
    after_update = _fanout(metrics, sdb)
    note(table.lookup("pk", live[0]))

    assert sorted(r["id"] for r in table.scan(project=("id",))) == sorted(live)
    assert sdb.check().ok
    sdb.flush_wals()
    assert {
        "results": (noted, results.hexdigest()),
        "sim_now_ns": sdb.sim_now_ns,
        "shard_now_ns": [db.cost_model.now_ns for db in sdb.shards],
        "fanout": _fanout(metrics, sdb)[:4],
        "raising": (before_raising, after_insert, after_update),
        "snapshot": _digest(sdb.snapshot()),
        "wals": [
            (len(db.wal.device.data),
             hashlib.sha256(db.wal.device.data).hexdigest())
            for db in sdb.shards
        ],
    } == PINNED


PINNED = {
    # (results noted, sha256 over their reprs in order)
    "results": (
        1359, "0a8205aad315e357cd29e07c789fae33e4487881f96d63d2e78c11cbd1567fc1"
    ),
    # the facade's parallel clock, then each shard's own
    "sim_now_ns": 16928026602.0,
    "shard_now_ns": [10434191393.0, 10309003690.0, 8798449834.0],
    # (shard.fanout.ops, shard.fanout.shards count, its sum, shard.router.routes)
    "fanout": (1494, 1494, 2504.0, 1689),
    # ``_fanout`` before the duplicate insert, after it, and after the
    # broadcast update on an unknown index (the first shard raises)
    "raising": (
        (1490, 1490, 2496.0, 1687, 16863010319.0),
        (1491, 1491, 2497.0, 1688, 16873014604.0),
        (1492, 1492, 2500.0, 1688, 16873014604.0),
    ),
    # sha256 of the merged ``snapshot()``
    "snapshot": "b4b2f11a5275f987f69749aaa4c8ab4f61243bb8720dc23c0805662b4d6c6b5a",
    # per shard: (WAL bytes, sha256 of them)
    "wals": [
        (13944, "4689d21a60ae26d4d97bd51a1a60e8305646df917c2282a78c636637b5dc9288"),
        (13904, "b99327b5951f217cce09626ac564f48d92697a83d3f9d03afdedd67f2c509b48"),
        (13324, "e3c9bd3f3808722f12471a8c8101c3881a9545d0fbc3c9521b6725cb5d364966"),
    ],
}
