"""Byte pins for the event streams each emitter journals.

Every case below drives the engine's emit sites — checkpoints, fault
detections and heals, recovery phases, tuning actions, migrations — and
pins a sha256 over ``repr([e.as_dict() for e in journal])``: the kinds,
order, shard ids, per-shard sequences, simulated times, trace ids and
payloads of every event.  Where the journal lives and how each emitter
reaches it may change; what lands in it may not.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs import MetricsRegistry
from repro.obs.__main__ import main
from repro.obs.events import EventJournal
from repro.query.database import Database
from repro.schema import UINT32, UINT64, Schema, char
from repro.shard.database import ShardedDatabase
from repro.shard.recovery import recover_sharded
from repro.wal.replay import recover

pytestmark = pytest.mark.trace

SCHEMA = Schema.of(("k", UINT64), ("n", UINT32))
N_ROWS = 200


def _digest(journal) -> str:
    text = repr([e.as_dict() for e in journal])
    return hashlib.sha256(text.encode()).hexdigest()


def _healed_engine():
    """A WAL engine with events, tracing and adaptive armed, two
    checkpoints, and a seeded plan that flips one stored bit in an index
    leaf and one in a heap page: the lookup that trips over the leaf heals
    the index, and the rebuild's heap scan redo-heals the heap page.  The
    controller is fed a window after the load and one every 50 lookups
    after it, the first of them the heal's, whose SLO breaches it
    journals."""
    registry = MetricsRegistry()
    injector = FaultInjector(seed=7, registry=registry)
    db = Database(
        data_pool_pages=64, seed=0, wal=True, metrics=registry,
        fault_injector=injector,
    )
    journal = db.enable_events()
    db.enable_tracing()
    controller = db.enable_adaptive()
    controller.sampler.sample()  # baseline: no window yet
    table = db.create_table("t", SCHEMA)
    index = db.create_index("t", "pk", ("k",))
    for i in range(N_ROWS):
        table.insert({"k": i, "n": i * 3})
    db.checkpoint()
    controller.evaluate(controller.sampler.sample())
    leaves = set(index.tree.leaf_page_ids)
    heap = set(table.heap.page_ids)
    injector.arm(FaultPlan.of(
        FaultSpec(FaultKind.WRITE_BIT_FLIP, at_nth=1,
                  page_filter=leaves.__contains__),
        FaultSpec(FaultKind.WRITE_BIT_FLIP, at_nth=1,
                  page_filter=heap.__contains__),
    ))
    db.data_pool.flush_all()
    db.data_pool.drop_clean()
    injector.disarm()
    for i in range(N_ROWS):
        assert db.recovery.call(table.lookup, "pk", i).values["n"] == i * 3
        if i % 50 == 0:
            controller.evaluate(controller.sampler.sample())
    db.checkpoint()
    return db, journal


def test_single_engine_stream_is_pinned():
    db, journal = _healed_engine()
    stats = db.recovery.stats
    assert stats.index_rebuilds >= 1 and stats.heap_page_rebuilds >= 1
    breaches = [dict(e.payload)["rule"] for e in journal.query(kind="slo.breach")]
    assert breaches == ["quarantine-ceiling", "lookup-p95-latency-ceiling"]
    assert _digest(journal) == (
        "eb6118af86c220665e649dbe89fc53393160db53de764148bffe55e044bb552d"
    )


def test_recovery_stream_is_pinned():
    db, _journal = _healed_engine()
    db.wal.flush()
    journal = EventJournal(registry=MetricsRegistry())
    db2, _report = recover(
        db.wal.device.data, journal=journal, journal_shard=3,
        metrics=MetricsRegistry(),
    )
    db2.checkpoint()  # the rebuilt engine journals on as shard 3
    assert _digest(journal) == (
        "6f19b57a7dabafdb4c66ee903a0551e5685c727e3ecc31e45b95e109405bcef4"
    )


def test_sharded_recovery_stream_is_pinned():
    sdb = ShardedDatabase(
        2, mode="zipf", hot_fraction=0.1, wal=True, wal_group_commit=1,
        seed=3,
    )
    table = sdb.create_table(
        "a", Schema.of(("id", UINT64), ("val", UINT32), ("tag", char(8)))
    )
    sdb.create_index("a", "a_pk", ("id",))
    for i in range(60):
        table.insert({"id": i, "val": i * 10, "tag": f"r{i}"})
    for _ in range(30):
        for key in (1, 2, 3, 5, 8):
            table.lookup("a_pk", key)
    assert sdb.rebalance().keys_moved > 0
    sdb.flush_wals()
    logs = [bytes(db.wal.device.data) for db in sdb.shards]

    journal = EventJournal(registry=MetricsRegistry())
    sdb2, _report = recover_sharded(
        logs, mode="zipf", hot_fraction=0.1, seed=3, journal=journal,
    )
    sdb2.checkpoint()  # each rebuilt shard journals on under its own id
    assert _digest(journal) == (
        "b64972419484824e777a7f46c54e4ddc24cca4b373a15678e6747a89053623c5"
    )


def test_obs_events_stdout_is_pinned(capsys):
    assert main(["events"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f012673b327e0a1ff96e38195a8f12770d2e1740f7bd606dce0e6c0fdaf54e3d"
    )
