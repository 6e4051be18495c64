"""§5j event journal: causal ordering, query surface, ring bounds, and
the engine emit sites (checkpoint, fault heals, crash recovery)."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.events import (
    DEFAULT_JOURNAL_CAPACITY,
    EVENT_KINDS,
    EventJournal,
)
from repro.obs.trace import TraceCollector
from repro.schema import UINT32, UINT64, Schema

pytestmark = pytest.mark.trace


def _journal(**kwargs):
    clock = {"t": 0.0}
    journal = EventJournal(
        clock=lambda: clock["t"], registry=MetricsRegistry(), **kwargs
    )
    return journal, clock


# -- causal ordering ----------------------------------------------------------


def test_seq_is_global_and_shard_seq_is_local():
    journal, clock = _journal()
    a = journal.emit("wal.checkpoint", shard=0)
    clock["t"] = 5.0
    b = journal.emit("fault.detected", shard=1, page=9)
    c = journal.emit("fault.recovered", shard=1, page=9)
    d = journal.emit("rebalance.begin")  # facade-side: shard None
    assert [e.seq for e in (a, b, c, d)] == [1, 2, 3, 4]
    assert (a.shard_seq, b.shard_seq, c.shard_seq, d.shard_seq) == (1, 1, 2, 1)
    assert b.t_ns == 5.0 and a.t_ns == 0.0
    payload = dict(c.payload)
    assert payload["page"] == 9 and payload.get("nope", "x") == "x"


def test_trace_source_stamps_active_trace_id():
    journal, _clock = _journal()
    collector = TraceCollector(registry=MetricsRegistry())
    journal.trace_source = collector
    outside = journal.emit("wal.checkpoint")
    with collector.trace("op"):
        inside = journal.emit("migration.intent", shard=1, key=3)
    explicit = journal.emit("migration.commit", shard=1, trace_id=99)
    assert outside.trace_id is None
    assert inside.trace_id == collector.traces()[-1].trace_id
    assert explicit.trace_id == 99


def test_payload_is_frozen_and_sorted():
    journal, _clock = _journal()
    event = journal.emit("tuning.action", knob="pool", b=2, a=1)
    assert event.payload == (("a", 1), ("b", 2), ("knob", "pool"))
    with pytest.raises(AttributeError):
        event.kind = "other"  # frozen dataclass
    doc = event.as_dict()
    assert doc["payload"] == {"a": 1, "b": 2, "knob": "pool"}
    assert "trace_id" not in doc  # omitted when absent


# -- query surface ------------------------------------------------------------


def _populated():
    journal, clock = _journal()
    journal.emit("fault.detected", shard=0, page=1)
    clock["t"] = 10.0
    journal.emit("fault.recovered", shard=0, page=1)
    clock["t"] = 20.0
    journal.emit("migration.intent", shard=1, key=5)
    clock["t"] = 30.0
    journal.emit("migration.commit", shard=1, key=5)
    journal.emit("rebalance.end")
    return journal


def test_query_filters_compose():
    journal = _populated()
    assert len(journal.query()) == 5
    assert [e.kind for e in journal.query(kind="fault.*")] == [
        "fault.detected", "fault.recovered"
    ]
    assert len(journal.query(shard=1)) == 2
    assert len(journal.query(kind="migration.*", shard=1)) == 2
    assert [e.kind for e in journal.query(t0=10.0, t1=20.0)] == [
        "fault.recovered", "migration.intent"
    ]
    assert [e.kind for e in journal.query(limit=2)] == [
        "migration.commit", "rebalance.end"
    ]
    assert journal.query(trace_id=123) == []
    assert len(journal.query(limit=3)) == 3
    assert "migration.intent" in journal.format(kind="migration.*")
    assert "(empty)" in EventJournal().format()


def test_vocabulary_is_closed_and_exported():
    assert len(EVENT_KINDS) == 16
    assert "migration.intent" in EVENT_KINDS
    assert "slo.breach" in EVENT_KINDS and "slo.clear" in EVENT_KINDS


# -- ring bounds --------------------------------------------------------------


def test_ring_evicts_oldest_but_keeps_seqs_monotonic():
    journal, _clock = _journal(capacity=4)
    for i in range(10):
        journal.emit("wal.checkpoint", shard=0, i=i)
    assert len(journal.query()) == 4
    assert [e.seq for e in journal] == [7, 8, 9, 10]
    # Local shard history still reads gap-free after eviction.
    assert [e.shard_seq for e in journal] == [7, 8, 9, 10]
    reg = journal._registry
    assert reg.counter("events.emitted").value == 10
    assert reg.counter("events.dropped").value == 6
    assert DEFAULT_JOURNAL_CAPACITY == 2048


def test_clear_resets_sequences():
    journal, _clock = _journal()
    journal.emit("wal.checkpoint", shard=2)
    journal.clear()
    assert len(journal.query()) == 0
    event = journal.emit("wal.checkpoint", shard=2)
    assert event.seq == 1 and event.shard_seq == 1


# -- engine emit sites --------------------------------------------------------


def _db(**kwargs):
    from repro.query.database import Database

    db = Database(seed=4, **kwargs)
    t = db.create_table("t", Schema.of(("k", UINT64), ("v", UINT32)))
    db.create_index("t", "pk", ("k",))
    return db, t


def test_checkpoint_and_heal_events_journal():
    db, t = _db(wal=True)
    assert db.journal is None  # strictly opt-in
    journal = db.enable_events()
    assert db.enable_events() is journal  # idempotent
    for i in range(20):
        t.insert({"k": i, "v": i})
    db.checkpoint()
    checkpoints = journal.query(kind="wal.checkpoint")
    assert len(checkpoints) == 1
    assert dict(checkpoints[0].payload).get("lsn") is not None


def test_crash_recovery_journals_phases_in_order():
    from repro.wal.replay import recover

    db, t = _db(wal=True)
    for i in range(15):
        t.insert({"k": i, "v": i})
    db.wal.flush()
    blob = db.wal.device.data

    journal = EventJournal(registry=MetricsRegistry())
    db2, report = recover(blob, journal=journal, journal_shard=3)
    kinds = [e.kind for e in journal]
    assert kinds[0] == "recovery.begin"
    assert kinds[-1] == "recovery.end"
    assert "recovery.redo" in kinds
    assert all(e.shard == 3 for e in journal)
    assert kinds == ["recovery.begin", "recovery.redo", "recovery.end"]
    # The recovered engine keeps journaling into the same log.
    assert db2.journal is journal


def test_sharded_recovery_reconciliation_journals():
    from repro.shard.database import ShardedDatabase
    from repro.shard.recovery import recover_sharded

    sdb = ShardedDatabase(2, mode="hash", seed=6, wal=True)
    t = sdb.create_table("t", Schema.of(("k", UINT64), ("v", UINT32)))
    sdb.create_index("t", "pk", ("k",))
    for i in range(24):
        t.insert({"k": i, "v": i})
    sdb.flush_wals()
    wals = [sdb.shard(i).wal.device.data for i in range(2)]

    journal = EventJournal(registry=MetricsRegistry())
    sdb2, report = recover_sharded(wals, seed=6, journal=journal)
    kinds = [e.kind for e in journal]
    assert kinds[0] == "recovery.begin"
    assert kinds[-1] == "recovery.end"
    assert kinds.count("recovery.begin") == 3  # facade + one per shard
    assert sdb2.journal is journal
    assert sum(1 for _ in sdb2.table("t").scan()) == 24


def test_adaptive_tuning_actions_journal():
    from repro.obs import AdaptiveController, Knob, KnobBinding, SloRule
    from repro.obs.sampler import TelemetrySampler

    reg = MetricsRegistry()
    t = {"now": 0.0}
    sampler = TelemetrySampler(reg, clock=lambda: t["now"])
    journal, _clock = _journal()
    state = {"v": 4.0}
    controller = AdaptiveController(
        sampler,
        rules=(
            SloRule(
                name="level-ceiling", selector="gauge.g.level",
                op="<=", threshold=1.0,
            ),
        ),
        knobs=(
            Knob(
                name="k", getter=lambda: state["v"],
                setter=lambda v: state.update(v=v),
                lo=1.0, hi=8.0, step=2.0,
            ),
        ),
        bindings=(
            KnobBinding(
                rule="level-ceiling", knob="k", direction="down",
                breach_windows=1,
            ),
        ),
        registry=reg,
        journal=journal,
    )
    reg.gauge("g.level").set(9.0)
    sampler.sample()
    t["now"] = 1e9
    point = sampler.sample()
    actions = controller.evaluate(point)
    assert actions and state["v"] == 2.0
    journaled = journal.query(kind="tuning.action")
    assert journaled, "breach-driven knob move must journal"
    assert dict(journaled[0].payload)["knob"] == "k"
