"""The facade's fan-out is pinned before its arms are merged.

A seeded mix over one three-shard zipf :class:`ShardedDatabase` (WAL on,
eight 512-byte frames per shard so evictions and write-backs happen all
the time) with tracing, the event journal and the fleet rollup armed, a
routing index and a second, cached, unique index.  It walks every arm of
every :class:`ShardedTable` op — routed *and* broadcast ``lookup`` /
``update`` / ``delete`` (answered by shard 0, answered by the last shard,
answered by nobody), ``insert``, ``lookup_many`` over routing batches with
duplicates and misses and over a non-routing batch, ``scan`` with a
projection that omits the routing column, ``aggregate`` with ``avg`` +
``min`` over an empty selection, two ``rebalance()`` passes and two ops
whose shard call raises inside the bracket.

What is pinned: every result in order, the facade's parallel clock, each
shard's own clock, the fan-out counters, the router's route count, every
trace tree (the ring holds 64, so the Chrome export is folded into a
running hash every few ops), the journal, the merged snapshot and each
shard's WAL device bytes.  A refactor of the facade must replay all of it
to the byte.  The literals were taken with the routed and the broadcast
arm of each op still spelled out separately and must not be edited.
"""

import hashlib
import json

import pytest

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry
from repro.query.predicates import ColumnEq, ColumnRange
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.shard.database import ShardedDatabase
from repro.util.rng import DeterministicRng

pytestmark = pytest.mark.shard

SCHEMA = Schema.of(
    ("id", UINT64), ("tag", UINT32), ("cat", char(4)), ("n", UINT32),
)
N_SHARDS = 3
MISSING = 10**9


def _tag(i: int) -> int:
    return (i * 7919) % 1_000_003


def _row(i: int) -> dict:
    return {"id": i, "tag": _tag(i), "cat": f"c{i % 5}", "n": (i * 7) % 250}


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()


def test_seeded_mix_replays_results_clocks_counters_traces_and_wal_bytes():
    metrics = MetricsRegistry()
    sdb = ShardedDatabase(
        N_SHARDS, mode="zipf", wal=True, data_pool_pages=8, page_size=512,
        seed=23, metrics=metrics,
    )
    trace = sdb.enable_tracing()
    journal = sdb.enable_events()
    rollup = sdb.enable_rollup()
    table = sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    sdb.create_cached_index("t", "by_tag", ("tag",), cached_fields=("n",))
    assert table.routing_index == "pk"

    results = hashlib.sha256()
    chrome = hashlib.sha256()
    noted = 0

    def note(value) -> None:
        nonlocal noted
        noted += 1
        results.update(repr(value).encode())

    def fold_traces() -> None:
        chrome.update(json.dumps(trace.to_chrome(), sort_keys=True).encode())

    def owned_by(shard: int, skip=()) -> int:
        return next(
            i for i in live
            if i not in skip and sdb.router.placement(i) == shard
        )

    live = list(range(420))
    for i in live:
        note(table.insert(_row(i)))
        if i % 40 == 0:
            fold_traces()
    hot = [3, 8, 21, 55, 144, 233, 377]
    next_id = 420
    rng = DeterministicRng(2023)
    for step in range(900):
        if step in (300, 700):
            fold_traces()
            intents = metrics.get("shard.migration.intents").value
            report = sdb.rebalance()
            # (keys planned, keys moved, rows moved): every planned key
            # moves, and each row moved logs one migration intent
            rows_moved = metrics.get("shard.migration.intents").value - intents
            note((report.keys_moved, report.keys_moved, rows_moved))
            assert report.keys_moved > 0
            fold_traces()
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
        if step % 20 == 0:
            fold_traces()
    fold_traces()

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
    fold_traces()

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
    # charges, counts the fan-out and closes its root span as an error.
    with pytest.raises(ReproError) as dup:
        table.insert(_row(live[0]))
    note(type(dup.value).__name__)
    with pytest.raises(ReproError) as unknown:
        table.update("no_such_index", 1, {"n": 1})
    note(type(unknown.value).__name__)
    note(table.lookup("pk", live[0]))
    fold_traces()

    assert sorted(r["id"] for r in table.scan(project=("id",))) == sorted(live)
    assert sdb.check().ok
    sdb.flush_wals()
    rollup.refresh()
    fanout_shards = metrics.get("shard.fanout.shards")
    assert {
        "results": (noted, results.hexdigest()),
        "sim_now_ns": sdb.sim_now_ns,
        "shard_now_ns": [db.cost_model.now_ns for db in sdb.shards],
        "fanout": (
            metrics.get("shard.fanout.ops").value,
            fanout_shards.count,
            fanout_shards.sum,
            metrics.get("shard.router.routes").value,
        ),
        "chrome": chrome.hexdigest(),
        "journal": (len(journal.as_dicts()), _digest(journal.as_dicts())),
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
    # sha256 over every folded ``trace.to_chrome()``
    "chrome": "fc85358420212c399bbbf85f807f95ccb60fd6ccd810e788ce5ada55f21aa90b",
    # (events retained, sha256 of ``journal.as_dicts()``)
    "journal": (
        82, "d11eb2a77f9d8408bdd6ec7a7530d8390effdb7d20d184ccaeec0f042300d20d"
    ),
    # sha256 of the merged ``snapshot()`` after a rollup refresh
    "snapshot": "da5f961e97ac03d376717c6c78886a99714352f8e75a0c46936b07dd65768657",
    # per shard: (WAL bytes, sha256 of them)
    "wals": [
        (13944, "4689d21a60ae26d4d97bd51a1a60e8305646df917c2282a78c636637b5dc9288"),
        (13904, "b99327b5951f217cce09626ac564f48d92697a83d3f9d03afdedd67f2c509b48"),
        (13324, "e3c9bd3f3808722f12471a8c8101c3881a9545d0fbc3c9521b6725cb5d364966"),
    ],
}
