"""RecoveryManager: heal-by-rebuild for index pages, honest failure for heaps."""

from collections import Counter

import pytest

from repro.errors import CorruptPageError, RecoveryError
from repro.faults import FaultInjector, RecoveryManager, flip_bit
from repro.faults.recovery import RecoveryManager as DirectRecoveryManager
from repro.obs import MetricsRegistry
from repro.query.database import Database
from repro.schema import UINT32, UINT64, Schema

pytestmark = pytest.mark.faults

N_ROWS = 200


def make_db(cached=False, wal=False):
    registry = MetricsRegistry()
    db = Database(
        data_pool_pages=64,
        seed=0,
        wal=wal,
        metrics=registry,
        fault_injector=FaultInjector(seed=0, registry=registry),
    )
    schema = Schema.of(("k", UINT64), ("n", UINT32))
    table = db.create_table("t", schema)
    if cached:
        index = db.create_cached_index("t", "pk", ("k",), cached_fields=("n",))
    else:
        index = db.create_index("t", "pk", ("k",))
    for i in range(N_ROWS):
        table.insert({"k": i, "n": i * 3})
    db.data_pool.flush_all()
    db.data_pool.drop_clean()
    return db, table, index, registry


def corrupt_at_rest(db, page_id, bit=999):
    """Flip one stored bit behind the buffer pool's back."""
    db.disk.write_page(page_id, flip_bit(db.disk.peek(page_id), bit))


def test_corrupt_index_page_heals_by_rebuild():
    db, table, index, registry = make_db()
    victim = min(index.tree.leaf_page_ids)
    corrupt_at_rest(db, victim)
    result = db.recovery.call(table.lookup, "pk", 123)
    assert result.found and result.values["n"] == 369
    assert db.recovery.stats.recovered == 1
    assert victim not in index.tree.leaf_page_ids  # fresh tree, old page orphaned
    faults = registry.snapshot()["faults"]
    assert faults["detected"] == faults["recovered"]
    assert faults.get("unrecoverable", 0) == 0
    assert registry.snapshot()["recovery"]["index_rebuilds"] == 1
    # Every key survived the rebuild.
    assert index.tree.num_entries == N_ROWS


def test_corrupt_cached_index_heals_and_drops_cache():
    db, table, index, _ = make_db(cached=True)
    # Warm the leaf cache so there is something to drop, then evict so
    # the next lookup actually re-reads the corrupted bytes.
    for i in range(0, N_ROWS, 2):
        index.lookup(i, ("k", "n"))
    db.data_pool.drop_clean()
    victim = min(index.tree.leaf_page_ids)
    corrupt_at_rest(db, victim)
    result = db.recovery.call(table.lookup, "pk", 40)
    assert result.found and result.values["n"] == 120
    assert db.recovery.stats.recovered == 1
    # Post-heal lookups still agree with ground truth (stale cache dropped).
    for i in range(N_ROWS):
        got = db.recovery.call(table.lookup, "pk", i)
        assert got.found and got.values["n"] == i * 3


def test_corrupt_heap_page_is_unrecoverable():
    db, table, _, registry = make_db()
    victim = table.heap.page_ids[0]
    corrupt_at_rest(db, victim)
    with pytest.raises(CorruptPageError):
        db.recovery.call(table.lookup, "pk", 0)
    faults = registry.snapshot()["faults"]
    assert faults["unrecoverable"] == 1
    assert faults["detected"] == (
        faults.get("recovered", 0) + faults["unrecoverable"]
    )
    assert db.recovery.stats.unrecoverable == 1


@pytest.mark.parametrize(
    "wal, counts", [(True, (2, 2, 0)), (False, (2, 0, 2))], ids=["wal", "no-wal"]
)
def test_the_journal_records_every_transition_it_counts(wal, counts):
    """A heap page the index rebuild trips over is a detection of its own:
    it is journaled, and resolved in the journal as it is counted — one
    ``fault.unrecoverable`` for the lost heap page and one for the index
    heal it aborted."""
    db, table, index, registry = make_db(wal=wal)
    journal = db.enable_events()
    corrupt_at_rest(db, min(index.tree.leaf_page_ids))
    corrupt_at_rest(db, table.heap.page_ids[-1])
    if wal:
        assert db.recovery.call(table.lookup, "pk", 0).found
    else:
        with pytest.raises(CorruptPageError):
            db.recovery.call(table.lookup, "pk", 0)
    kinds = Counter(event.kind for event in journal.query(kind="fault.*"))
    stats = db.recovery.stats
    journaled = (
        kinds["fault.detected"], kinds["fault.recovered"],
        kinds["fault.unrecoverable"],
    )
    assert journaled == (
        registry.snapshot()["faults"]["detected"], stats.recovered,
        stats.unrecoverable,
    )
    assert journaled == counts
    assert (stats.index_rebuilds, stats.heap_page_rebuilds) == (
        (1, 1) if wal else (0, 0)
    )


def test_heal_budget_exhaustion_raises_recovery_error():
    db, _, index, _ = make_db()
    manager = DirectRecoveryManager(db, max_heals=3)

    def always_corrupt():
        raise CorruptPageError(min(index.tree.leaf_page_ids), "synthetic")

    with pytest.raises(RecoveryError):
        manager.call(always_corrupt)
    assert manager.stats.recovered == 3


def test_max_heals_validation():
    with pytest.raises(RecoveryError):
        RecoveryManager(object(), max_heals=0)
