"""Crash-during-migration matrix: every frame boundary, exactly one owner.

A hot-partition migration writes to two logs: the destination gets a
``SHARD_MIGRATE`` intent plus the copy-insert (flushed immediately — the
durability point), the source gets the delete.  A real crash is one
instant across the cluster, so the matrix instruments both shards'
append streams into one causally-ordered timeline and enumerates every
*consistent cut*: for each append event, the appending shard's log is
cut at every frame boundary inside that append (plus a mid-frame tear),
while the other shard keeps exactly the bytes it had durable at that
moment.  Every cut is then recovered with
:func:`repro.shard.recovery.recover_sharded` and must satisfy:

* **exactly one owner** — no key resident on two shards (facade check);
* **zero lost tuples** — every key durable before the rebalance is still
  readable through the rebuilt router, with its exact row;
* **zero duplicated tuples** — total row count matches the key universe;
* the rebuilt router's placement agrees with physical residency.

Mirrors the PR-4 (WAL torn-tail) and PR-7 (crash-during-commit) matrix
style; the sharded fault drill deliberately leaves crash coverage to
this test.
"""

import pytest

from repro.schema.schema import Schema
from repro.schema.types import INT64, varchar
from repro.shard.database import ShardedDatabase
from repro.shard.recovery import recover_sharded
from repro.wal.record import frame_boundaries

pytestmark = pytest.mark.shard

SCHEMA = Schema.of(("id", INT64), ("val", INT64), ("tag", varchar(8)))

N_ROWS = 120
HOT = tuple(range(1, 13))


def _build(n_shards=2, tables=("a", "b"), group_commit=1):
    """A sharded db with co-partitioned tables, loaded and flushed so the
    base data is durable everywhere before any migration starts."""
    sdb = ShardedDatabase(
        n_shards,
        mode="zipf",
        hot_fraction=0.1,
        wal=True,
        wal_group_commit=group_commit,
        seed=3,
    )
    for name in tables:
        sdb.create_table(name, SCHEMA)
        sdb.create_index(name, f"{name}_pk", ("id",))
        t = sdb.table(name)
        for i in range(N_ROWS):
            t.insert({"id": i, "val": i * 10, "tag": f"r{i}"})
    sdb.flush_wals()
    return sdb


def _heat(sdb, tables=("a", "b")):
    t = sdb.table(tables[0])
    for _ in range(30):
        for key in HOT:
            t.lookup(f"{tables[0]}_pk", key)


def _instrument(sdb):
    """Record every device append as (shard, size_before, size_after)."""
    events = []
    for i, db in enumerate(sdb.shards):
        dev = db.wal.device
        orig = dev.append

        def wrapped(blob, _i=i, _dev=dev, _orig=orig):
            before = _dev.size
            _orig(blob)
            events.append((_i, before, _dev.size))

        dev.append = wrapped
    return events


def _consistent_cuts(events, base_sizes, final_logs):
    """Every reachable crash state during the instrumented window.

    Walks the global append order; for the event appending to shard
    ``s``, yields one cut per frame boundary landing inside the append
    (shard ``s`` truncated there, every other shard at its size as of
    the previous event) plus one mid-frame tear per append.
    """
    sizes = dict(base_sizes)
    cuts = []
    for shard, before, after in events:
        bounds = [
            b for b in frame_boundaries(final_logs[shard])
            if before < b <= after
        ]
        tears = [before + 3] if after - before > 3 else []
        for cut_at in tears + bounds:
            state = dict(sizes)
            state[shard] = cut_at
            cuts.append(state)
        sizes[shard] = after
    cuts.append(dict(sizes))  # the post-migration quiescent state
    return cuts


def _oracle_rows(tables=("a", "b")):
    return {
        name: {
            i: {"id": i, "val": i * 10, "tag": f"r{i}"} for i in range(N_ROWS)
        }
        for name in tables
    }


def _assert_recovered_state(sdb2, report, tables=("a", "b")):
    oracle = _oracle_rows(tables)
    check = sdb2.check()
    assert check.ok, check.problems  # exactly-one-owner, per-shard walks
    for name in tables:
        t = sdb2.table(name)
        rows = list(t.scan())
        assert len(rows) == N_ROWS, f"{name}: lost/duplicated tuples"
        assert {r["id"]: r for r in rows} == oracle[name]
        # Routed lookups must find every key where it physically lives.
        for key in range(N_ROWS):
            result = t.lookup(f"{name}_pk", key)
            assert result.found, f"{name}[{key}] unreachable via router"
            assert dict(result.values) == oracle[name][key]
        # The router's word matches physical residency.
        for key in HOT:
            assert sdb2.router.placement(key) == sdb2.resident_shard(
                name, key
            )


def test_crash_matrix_every_frame_boundary():
    sdb = _build()
    _heat(sdb)
    base_sizes = {i: db.wal.device.size for i, db in enumerate(sdb.shards)}
    events = _instrument(sdb)
    report = sdb.rebalance()
    assert report.keys_moved > 0
    sdb.flush_wals()
    final_logs = {i: db.wal.device.data for i, db in enumerate(sdb.shards)}
    cuts = _consistent_cuts(events, base_sizes, final_logs)
    assert len(cuts) > 2 * report.keys_moved  # the matrix is real
    for state in cuts:
        wals = [final_logs[i][: state[i]] for i in range(2)]
        sdb2, rec = recover_sharded(wals, mode="zipf", hot_fraction=0.1, seed=3)
        _assert_recovered_state(sdb2, rec)


def test_crash_matrix_with_group_commit_buffering():
    """Group commit > 1: source deletes ride a shared flush, so whole
    migrations sit undurable for a while — cuts there must roll back to
    src ownership without losing anything."""
    sdb = _build(group_commit=4)
    _heat(sdb)
    base_sizes = {i: db.wal.device.size for i, db in enumerate(sdb.shards)}
    events = _instrument(sdb)
    sdb.rebalance()
    sdb.flush_wals()
    final_logs = {i: db.wal.device.data for i, db in enumerate(sdb.shards)}
    cuts = _consistent_cuts(events, base_sizes, final_logs)
    for state in cuts[:: max(1, len(cuts) // 40)] + [cuts[-1]]:
        wals = [final_logs[i][: state[i]] for i in range(2)]
        sdb2, rec = recover_sharded(wals, mode="zipf", hot_fraction=0.1, seed=3)
        _assert_recovered_state(sdb2, rec)


def test_ping_pong_migration_orders_by_seq():
    """A→B then B→A for the same key: if a crash leaves the key on both
    shards, the *newest* durable intent (highest seq) must win, even
    though the two intents live in different logs."""
    sdb = _build(tables=("a",))
    t = sdb.table("a")
    key = HOT[0]
    src = sdb.router.placement(key)
    dst = 1 - src
    # First migration src→dst, fully durable.
    sdb._migrate_key(key, src, dst)
    sdb.router.apply_move(key, dst)
    sdb.flush_wals()
    # Second migration dst→src; crash before the delete on dst flushes:
    # truncate dst's log back to the size recorded before the delete.
    pre = {i: db.wal.device.size for i, db in enumerate(sdb.shards)}
    sdb._migrate_key(key, dst, src)
    sdb.flush_wals()
    logs = {i: db.wal.device.data for i, db in enumerate(sdb.shards)}
    cut = [logs[0], logs[1]]
    cut[dst] = cut[dst][: pre[dst]]  # dst still holds its copy
    sdb2, _rec = recover_sharded(cut, mode="zipf", hot_fraction=0.1, seed=3)
    assert sdb2.metrics.get("shard.recovery.duplicates_resolved").value >= 1
    check = sdb2.check()
    assert check.ok, check.problems
    # The second intent (seq 2, logged on src) outranks the first
    # (seq 1, logged on dst): the key must land on src, reachable, once.
    assert sdb2.resident_shard("a", key) == src
    assert sdb2.router.placement(key) == src
    result = sdb2.table("a").lookup("a_pk", key)
    assert result.found and dict(result.values)["val"] == key * 10
    assert sdb2.table("a").num_rows == N_ROWS


def test_crash_between_co_partitioned_tables_reconciles_together():
    """Cut exactly between table a's migration and table b's for one
    key: recovery must elect a single owner for the key and relocate the
    straggler table's row to it."""
    sdb = _build()
    t = sdb.table("a")
    key = HOT[0]
    src = sdb.router.placement(key)
    dst = 1 - src
    base_sizes = {i: db.wal.device.size for i, db in enumerate(sdb.shards)}
    events = _instrument(sdb)
    sdb._migrate_key(key, src, dst)
    sdb.flush_wals()
    final_logs = {i: db.wal.device.data for i, db in enumerate(sdb.shards)}
    # With group commit 1, the event stream per table is (dst: intent),
    # (dst: insert), (src: delete) — first for table "a", then "b".  Cut
    # at the instant table a's migration completed and table b's hasn't
    # begun: replay events up to and including the first src append.
    state = dict(base_sizes)
    for shard, _before, after in events:
        state[shard] = after
        if shard == src:
            break
    else:
        pytest.fail(f"no src append in event stream: {events}")
    wals = [final_logs[i][: state[i]] for i in range(2)]
    sdb2, rec = recover_sharded(wals, mode="zipf", hot_fraction=0.1, seed=3)
    _assert_recovered_state(sdb2, rec)
    # Both tables agree on the key's home.
    assert sdb2.resident_shard("a", key) == sdb2.resident_shard("b", key)
