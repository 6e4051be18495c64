"""The counter families a component owns, pinned at fixed points of one run.

One scripted run on one shared registry drives every component that
counts an event of its own: the recovery manager (a heal with a WAL and
one without), two sessions (one of them conflicting), an adaptive
controller that takes an action, the columnar mirror (scans around a
write that seals a segment, a fallback, a registry reset and a dropped
table) and the profiler.  After each step the ``faults``, ``recovery``,
``txn``, ``adaptive``, ``columnar`` and ``profiler`` families are
snapshotted; the whole trail is pinned as literals.  Every point sits
after a columnar read, where the columnar counts have been published.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector, RecoveryManager, flip_bit
from repro.obs import MetricsRegistry
from repro.obs.adaptive import AdaptiveController, Knob, KnobBinding
from repro.obs.health import SloRule
from repro.obs.sampler import TelemetrySampler
from repro.query.database import Database
from repro.query.predicates import ColumnEq, ColumnRange, Predicate
from repro.schema import UINT32, UINT64, Schema

pytestmark = pytest.mark.obs

FAMILIES = ("faults", "recovery", "txn", "adaptive", "columnar", "profiler")
SCHEMA = Schema.of(("k", UINT64), ("n", UINT32))
N_ROWS = 200


class _OddK(Predicate):
    """A predicate the columnar kernels cannot compile."""

    def matches(self, row) -> bool:
        return row["k"] % 2 == 1


def _families(registry: MetricsRegistry) -> dict:
    snap = registry.snapshot()
    return {family: snap.get(family, {}) for family in FAMILIES}


def _engine(registry, wal: bool) -> Database:
    db = Database(
        data_pool_pages=64, seed=0, wal=wal, metrics=registry,
        fault_injector=FaultInjector(seed=0, registry=registry),
    )
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("k",))
    for i in range(N_ROWS):
        table.insert({"k": i, "n": i * 3})
    db.data_pool.flush_all()
    db.data_pool.drop_clean()
    return db


def _corrupt(db: Database, page_id: int) -> None:
    """Flip one stored bit of a page no frame holds."""
    db.data_pool.flush_all()
    db.data_pool.drop_clean()
    db.disk.write_page(page_id, flip_bit(db.disk.peek(page_id), 999))


def _heal(db: Database) -> str:
    """One corrupt leaf and one corrupt heap page: the lookup trips the
    leaf, and the index rebuild's heap scan trips the heap page."""
    table = db.table("t")
    _corrupt(db, min(table.index("pk").tree.leaf_page_ids))
    _corrupt(db, table.heap.page_ids[-1])
    try:
        db.recovery.call(table.lookup, "pk", 0)
    except Exception as exc:  # the WAL-less heap page is lost
        return type(exc).__name__
    return "ok"


def _adaptive(registry) -> list[int]:
    """A gauge-driven rule over a manual clock: a degenerate window, two
    breaches that move the knob, a cooldown skip, then a saturated step."""
    signal = registry.gauge("pin.signal")
    sampler = TelemetrySampler(registry, clock=None)
    value = {"v": 9.0}
    controller = AdaptiveController(
        sampler,
        rules=(SloRule(  # the pin signal stays at zero
            name="pin-ceiling", selector="gauge.pin.signal", op="<=",
            threshold=0.0, window=1,
        ),),
        knobs=[Knob(
            name="pin.value", getter=lambda: value["v"],
            setter=lambda v: value.update(v=v), lo=0.0, hi=10.0, step=1.0,
        )],
        bindings=[KnobBinding("pin-ceiling", "pin.value", "up", 2, 1)],
        registry=registry,
    )
    moved = []
    t = 0.0
    controller.evaluate(sampler.sample(t))        # degenerate: dt == 0
    signal.set(1.0)
    for _ in range(5):
        t += 1_000.0
        moved.append(len(controller.evaluate(sampler.sample(t))))
    return moved


def _run() -> list:
    registry = MetricsRegistry()
    trail = []

    # -- heals: with a WAL (index rebuild + nested heap redo), without
    wal_db = _engine(registry, wal=True)
    wal_db.enable_profiling()
    trail.append(("heal-wal", _heal(wal_db), _families(registry)))
    # a second healer on the same engine and registry (the drill's sweeper)
    sweeper = RecoveryManager(wal_db, max_heals=4, registry=registry)
    _corrupt(wal_db, max(wal_db.table("t").index("pk").tree.leaf_page_ids))
    found = sweeper.call(wal_db.table("t").lookup, "pk", N_ROWS - 1).found
    trail.append(("sweeper", found, _families(registry)))
    plain_db = _engine(registry, wal=False)
    trail.append(("heal-plain", _heal(plain_db), _families(registry)))

    # -- two sessions, the second conflicting with the first
    s1, s2 = wal_db.session(), wal_db.session()
    s1.begin()
    s2.begin()
    s1.update("t", 3, {"n": 1})
    outcome = "no-conflict"
    try:
        s2.update("t", 3, {"n": 2})
    except Exception as exc:
        outcome = type(exc).__name__
    s1.commit()
    s2.begin()
    s2.lookup("t", 4)
    s2.commit()                                   # read-only commit
    trail.append(("sessions", outcome, _families(registry)))

    # -- an adaptive run that takes an action
    trail.append(("adaptive", _adaptive(registry), _families(registry)))

    # -- columnar scans around a write that seals a segment
    col_db = Database(seed=3, wal=False, metrics=registry)
    col = col_db.create_table("c", SCHEMA)
    col_db.create_index("c", "pk", ("k",))
    for i in range(15):
        col.insert({"k": i, "n": i % 4})
    col_db.enable_profiling()
    col_db.enable_columnar(segment_rows=8)
    hot = ColumnEq("n", 1)
    rows = [len(list(col.scan(hot))), len(list(col.scan(hot)))]
    rows.append(col.aggregate([("count", None)], ColumnRange("n", 0, 2))["count"])
    trail.append(("columnar-before", rows, _families(registry)))
    col.insert({"k": 15, "n": 1})                 # fills segment 2
    col.insert({"k": 16, "n": 1})                 # seals it, opens segment 3
    rows = [len(list(col.scan(hot))), len(list(col.scan(_OddK())))]
    trail.append(("columnar-after", rows, _families(registry)))

    # -- a registry reset, more traffic, then a dropped table
    registry.reset()
    col.update("pk", 2, {"n": 1})
    rows = [len(list(col.scan(hot))), len(list(col.scan(hot)))]
    trail.append(("after-reset", rows, _families(registry)))
    col_db.drop_table("c")
    other = col_db.create_table("d", SCHEMA)
    col_db.create_index("d", "pk", ("k",))
    other.insert({"k": 1, "n": 1})
    rows = [len(list(other.scan(hot)))]
    trail.append(("after-drop", rows, _families(registry)))
    return trail


#: ``(step, outcome, families)`` after each step of :func:`_run`.
PINNED = [('heal-wal',
  'ok',
  {'adaptive': {'knob': {'pool': {'data_pages': 64.0},
                         'wal': {'group_commit_records': 8.0}}},
   'columnar': {},
   'faults': {'detected': 2,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 2,
              'retries': 0,
              'unrecoverable': 0},
   'profiler': {'errors': 1, 'fingerprints': 1.0, 'ops': 2},
   'recovery': {'heap_page_rebuilds': 1, 'index_rebuilds': 1},
   'txn': {}}),
 ('sweeper',
  True,
  {'adaptive': {'knob': {'pool': {'data_pages': 64.0},
                         'wal': {'group_commit_records': 8.0}}},
   'columnar': {},
   'faults': {'detected': 3,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 3,
              'retries': 0,
              'unrecoverable': 0},
   'profiler': {'errors': 2, 'fingerprints': 1.0, 'ops': 4},
   'recovery': {'heap_page_rebuilds': 1, 'index_rebuilds': 2},
   'txn': {}}),
 ('heal-plain',
  'CorruptPageError',
  {'adaptive': {'knob': {'pool': {'data_pages': 64.0},
                         'wal': {'group_commit_records': 8.0}}},
   'columnar': {},
   'faults': {'detected': 5,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 3,
              'retries': 0,
              'unrecoverable': 2},
   'profiler': {'errors': 2, 'fingerprints': 1.0, 'ops': 4},
   'recovery': {'heap_page_rebuilds': 1, 'index_rebuilds': 2},
   'txn': {}}),
 ('sessions',
  'TxnConflictError',
  {'adaptive': {'knob': {'pool': {'data_pages': 64.0},
                         'wal': {'group_commit_records': 8.0}}},
   'columnar': {},
   'faults': {'detected': 5,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 3,
              'retries': 0,
              'unrecoverable': 2},
   'profiler': {'errors': 2, 'fingerprints': 2.0, 'ops': 7},
   'recovery': {'heap_page_rebuilds': 1, 'index_rebuilds': 2},
   'txn': {'aborts': 1,
           'active': 0.0,
           'begins': 3,
           'commits': 2,
           'conflicts': 1,
           'sessions': 2,
           'snapshot_age': {'buckets': {'1': 2, '2': 1},
                            'count': 3,
                            'max': 1,
                            'mean': 0.3333333333333333,
                            'min': 0,
                            'sum': 1.0},
           'tracked_keys': 0.0,
           'undo_records': 0}}),
 ('adaptive',
  [0, 1, 0, 0, 0],
  {'adaptive': {'actions': 1,
                'breach_windows': 5,
                'cooldown_skips': 1,
                'degenerate_windows': 1,
                'knob': {'pool': {'data_pages': 64.0},
                         'wal': {'group_commit_records': 8.0}},
                'saturated': 2,
                'ticks': 6},
   'columnar': {},
   'faults': {'detected': 5,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 3,
              'retries': 0,
              'unrecoverable': 2},
   'profiler': {'errors': 2, 'fingerprints': 2.0, 'ops': 7},
   'recovery': {'heap_page_rebuilds': 1, 'index_rebuilds': 2},
   'txn': {'aborts': 1,
           'active': 0.0,
           'begins': 3,
           'commits': 2,
           'conflicts': 1,
           'sessions': 2,
           'snapshot_age': {'buckets': {'1': 2, '2': 1},
                            'count': 3,
                            'max': 1,
                            'mean': 0.3333333333333333,
                            'min': 0,
                            'sum': 1.0},
           'tracked_keys': 0.0,
           'undo_records': 0}}),
 ('columnar-before',
  [4, 4, 8],
  {'adaptive': {'actions': 1,
                'breach_windows': 5,
                'cooldown_skips': 1,
                'degenerate_windows': 1,
                'knob': {'pool': {'data_pages': 1024.0},
                         'wal': {'group_commit_records': 8.0}},
                'saturated': 2,
                'ticks': 6},
   'columnar': {'aggregates': 1,
                'bytes_encoded': 0.0,
                'bytes_raw': 0.0,
                'cache': {'entries': 2.0,
                          'hits': 1,
                          'invalidations': 0,
                          'misses': 2},
                'fallbacks': 0,
                'rebuilds': 1,
                'rows': 15.0,
                'scans': 2,
                'segments': 2.0,
                'segments_sealed': 1},
   'faults': {'detected': 5,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 3,
              'retries': 0,
              'unrecoverable': 2},
   'profiler': {'errors': 2, 'fingerprints': 2.0, 'ops': 10},
   'recovery': {'heap_page_rebuilds': 1, 'index_rebuilds': 2},
   'txn': {'aborts': 1,
           'active': 0.0,
           'begins': 3,
           'commits': 2,
           'conflicts': 1,
           'sessions': 2,
           'snapshot_age': {'buckets': {'1': 2, '2': 1},
                            'count': 3,
                            'max': 1,
                            'mean': 0.3333333333333333,
                            'min': 0,
                            'sum': 1.0},
           'tracked_keys': 0.0,
           'undo_records': 0}}),
 ('columnar-after',
  [6, 8],
  {'adaptive': {'actions': 1,
                'breach_windows': 5,
                'cooldown_skips': 1,
                'degenerate_windows': 1,
                'knob': {'pool': {'data_pages': 1024.0},
                         'wal': {'group_commit_records': 8.0}},
                'saturated': 2,
                'ticks': 6},
   'columnar': {'aggregates': 1,
                'bytes_encoded': 0.0,
                'bytes_raw': 0.0,
                'cache': {'entries': 1.0,
                          'hits': 1,
                          'invalidations': 2,
                          'misses': 3},
                'fallbacks': 1,
                'rebuilds': 1,
                'rows': 17.0,
                'scans': 3,
                'segments': 3.0,
                'segments_sealed': 2},
   'faults': {'detected': 5,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 3,
              'retries': 0,
              'unrecoverable': 2},
   'profiler': {'errors': 2, 'fingerprints': 3.0, 'ops': 14},
   'recovery': {'heap_page_rebuilds': 1, 'index_rebuilds': 2},
   'txn': {'aborts': 1,
           'active': 0.0,
           'begins': 3,
           'commits': 2,
           'conflicts': 1,
           'sessions': 2,
           'snapshot_age': {'buckets': {'1': 2, '2': 1},
                            'count': 3,
                            'max': 1,
                            'mean': 0.3333333333333333,
                            'min': 0,
                            'sum': 1.0},
           'tracked_keys': 0.0,
           'undo_records': 0}}),
 ('after-reset',
  [7, 7],
  {'adaptive': {'actions': 0,
                'breach_windows': 0,
                'cooldown_skips': 0,
                'degenerate_windows': 0,
                'knob': {'pool': {'data_pages': 1024.0},
                         'wal': {'group_commit_records': 8.0}},
                'saturated': 0,
                'ticks': 0},
   'columnar': {'aggregates': 0,
                'bytes_encoded': 0.0,
                'bytes_raw': 0.0,
                'cache': {'entries': 1.0,
                          'hits': 1,
                          'invalidations': 1,
                          'misses': 1},
                'fallbacks': 0,
                'rebuilds': 0,
                'rows': 17.0,
                'scans': 2,
                'segments': 3.0,
                'segments_sealed': 0},
   'faults': {'detected': 0,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 0,
              'retries': 0,
              'unrecoverable': 0},
   'profiler': {'errors': 0, 'fingerprints': 4.0, 'ops': 3},
   'recovery': {'heap_page_rebuilds': 0, 'index_rebuilds': 0},
   'txn': {'aborts': 0,
           'active': 0.0,
           'begins': 0,
           'commits': 0,
           'conflicts': 0,
           'sessions': 0,
           'snapshot_age': {'buckets': {},
                            'count': 0,
                            'max': 0.0,
                            'mean': 0.0,
                            'min': 0.0,
                            'sum': 0.0},
           'tracked_keys': 0.0,
           'undo_records': 0}}),
 ('after-drop',
  [1],
  {'adaptive': {'actions': 0,
                'breach_windows': 0,
                'cooldown_skips': 0,
                'degenerate_windows': 0,
                'knob': {'pool': {'data_pages': 1024.0},
                         'wal': {'group_commit_records': 8.0}},
                'saturated': 0,
                'ticks': 0},
   'columnar': {'aggregates': 0,
                'bytes_encoded': 0.0,
                'bytes_raw': 0.0,
                'cache': {'entries': 1.0,
                          'hits': 1,
                          'invalidations': 1,
                          'misses': 2},
                'fallbacks': 0,
                'rebuilds': 1,
                'rows': 1.0,
                'scans': 3,
                'segments': 1.0,
                'segments_sealed': 0},
   'faults': {'detected': 0,
              'injected': 0,
              'kind': {'crash_point': 0,
                       'read_bit_flip': 0,
                       'stuck_write': 0,
                       'torn_write': 0,
                       'transient_read_error': 0,
                       'transient_write_error': 0,
                       'write_bit_flip': 0},
              'recovered': 0,
              'retries': 0,
              'unrecoverable': 0},
   'profiler': {'errors': 0, 'fingerprints': 6.0, 'ops': 5},
   'recovery': {'heap_page_rebuilds': 0, 'index_rebuilds': 0},
   'txn': {'aborts': 0,
           'active': 0.0,
           'begins': 0,
           'commits': 0,
           'conflicts': 0,
           'sessions': 0,
           'snapshot_age': {'buckets': {},
                            'count': 0,
                            'max': 0.0,
                            'mean': 0.0,
                            'min': 0.0,
                            'sum': 0.0},
           'tracked_keys': 0.0,
           'undo_records': 0}})]


def test_count_families_are_pinned():
    trail = _run()
    assert [step for step, _, _ in trail] == [step for step, _, _ in PINNED]
    for got, want in zip(trail, PINNED):
        assert got == want, got[0]
