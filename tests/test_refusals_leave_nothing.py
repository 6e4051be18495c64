"""Every refusal leaves nothing behind.

One matrix over the engine's refusals — CREATE INDEX under a taken name
or on a populated table, an update of a key column or of a column the
schema lacks (autocommit and in a session), a session insert missing a
column, a malformed projection — with the profiler and tracing armed.
After each, the WAL bytes, the disk's page count, every table's index
names and the pending write claims are what they were, the profiler
keeps counting and no trace is left open.
"""

import pytest

from repro import Database, Schema, UINT32, UINT64
from repro.errors import CatalogError, QueryError, SchemaError, TxnConflictError
from repro.wal.replay import recover

SCHEMA = Schema.of(("id", UINT64), ("v", UINT32))


def _db():
    db = Database(data_pool_pages=64, seed=0, wal=True)
    a = db.create_table("a", SCHEMA)
    db.create_index("a", "pk", ("id",))
    db.create_table("b", SCHEMA)
    db.create_table("c", SCHEMA)
    db.create_index("c", "c_pk", ("id",))
    for i in range(1, 6):
        a.insert({"id": i, "v": 10 * i})
    db.enable_profiling()
    db.enable_tracing()
    return db


def _state(db):
    return (
        db.wal.all_bytes(),
        db.disk.num_pages,
        {name: db.table(name).index_names for name in db.catalog.table_names},
        dict(db.txn_manager._pending),
        db.trace.active,
    )


def _assert_left_nothing(db, before):
    assert _state(db) == before
    assert db.trace.active is None
    # the profiler counts the next operation, and its trace finishes
    ops, finished = db.tracer.profiler.operations, len(db.trace.traces())
    assert db.table("a").lookup("pk", 1).values == {"id": 1, "v": 10}
    assert db.tracer.profiler.operations == ops + 1
    assert len(db.trace.traces()) == finished + 1
    assert db.trace.active is None


def _open_session(db):
    """A session that already wrote once, so its TXN_BEGIN is logged."""
    session = db.session()
    session.begin()
    session.update("a", 2, {"v": 21})
    return session


def _index_taken_by_another_table(db):
    with pytest.raises(CatalogError, match="index 'pk' already exists"):
        db.create_index("b", "pk", ("id",))


def _index_taken_by_the_same_table(db):
    with pytest.raises(QueryError, match="index 'c_pk' already attached"):
        db.create_cached_index("c", "c_pk", ("id",), ("v",))


def _index_on_a_populated_table(db):
    with pytest.raises(QueryError, match=r"already has rows \(no back-fill"):
        db.create_index("a", "by_v", ("v",))


def _key_column_update(db):
    with pytest.raises(QueryError, match="cannot update index key columns"):
        db.table("a").update("pk", 1, {"id": 9})


def _unknown_column_update(db):
    with pytest.raises(QueryError, match=r"has no columns \['vv'\]"):
        db.table("a").update("pk", 1, {"vv": 5})


def _session_key_column_update(db):
    session = _open_session(db)
    before = _state(db)
    with pytest.raises(QueryError, match="cannot update index key columns"):
        session.update("a", 1, {"id": 5})
    return before


def _session_unknown_column_update(db):
    session = _open_session(db)
    before = _state(db)
    with pytest.raises(QueryError, match=r"has no columns \['vv'\]"):
        session.update("a", 1, {"vv": 5})
    return before


def _session_insert_missing_a_column(db):
    session = _open_session(db)
    before = _state(db)
    with pytest.raises(SchemaError, match="missing values"):
        session.insert("a", {"id": 7})
    return before


def _malformed_projection(db):
    with pytest.raises(TypeError):
        db.table("a").lookup("pk", 1, project=5)


REFUSALS = [
    _index_taken_by_another_table,
    _index_taken_by_the_same_table,
    _index_on_a_populated_table,
    _key_column_update,
    _unknown_column_update,
    _session_key_column_update,
    _session_unknown_column_update,
    _session_insert_missing_a_column,
    _malformed_projection,
]


@pytest.mark.parametrize("refusal", REFUSALS, ids=lambda f: f.__name__[1:])
def test_refusal_leaves_nothing_behind(refusal):
    db = _db()
    before = _state(db)
    before = refusal(db) or before
    _assert_left_nothing(db, before)


def test_refused_create_index_leaves_no_phantom_index():
    """The catalog used to refuse a name another table held only after
    the index was attached: it answered lookups and took writes, but no
    checkpoint or WAL record named it and ``check()`` did not count it."""
    db = Database(data_pool_pages=64, wal=True)
    db.create_table("a", SCHEMA)
    db.create_index("a", "pk", ("id",))
    b = db.create_table("b", SCHEMA)
    log, pages = db.wal.all_bytes(), db.disk.num_pages
    with pytest.raises(CatalogError):
        db.create_index("b", "pk", ("id",))
    assert b.index_names == []
    assert db.wal.all_bytes() == log
    assert db.disk.num_pages == pages
    db.create_index("b", "b_pk", ("id",))
    b.insert({"id": 7, "v": 1})
    report = db.check()
    assert report.ok and report.indexes_checked == 2
    db.wal.flush()
    recovered, _ = recover(db.wal.device.data)
    assert recovered.table("b").index_names == ["b_pk"]
    assert recovered.table("b").lookup("b_pk", 7).found


def test_refused_session_update_releases_its_claim():
    """A refused write used to keep its claim: every later session's
    write of the key conflicted, and the version chain the claim pinned
    hid newer autocommit writes from new snapshots."""
    db = Database(data_pool_pages=64, wal=True)
    t = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    t.insert({"id": 1, "v": 10})
    s1 = db.session()
    s1.begin()
    with pytest.raises(QueryError):
        s1.update("t", 1, {"id": 5})
    s1.commit()
    assert db.txn_manager._pending == {}
    t.update("pk", 1, {"v": 4})
    s2 = db.session()
    s2.begin()
    assert s2.lookup("t", 1).values == {"id": 1, "v": 4}
    assert s2.update("t", 1, {"v": 3})
    s2.commit()
    assert t.lookup("pk", 1).values == {"id": 1, "v": 3}


def test_session_update_fault_after_the_log_keeps_its_claim():
    """A fault after the UPDATE is logged is not a refusal: the heap row
    already holds the uncommitted change, so the claim must still keep
    other transactions off the key.  A healed retry reuses the claim."""
    db = Database(data_pool_pages=64, wal=True)
    t = db.create_table("t", SCHEMA)
    index = db.create_index("t", "pk", ("id",))
    t.insert({"id": 1, "v": 10})
    s1 = db.session()
    s1.begin()

    def fail(row, changed):
        raise RuntimeError("injected index fault")

    index.note_update = fail
    log = db.wal.all_bytes()
    with pytest.raises(RuntimeError, match="injected"):
        s1.update("t", 1, {"v": 5})
    assert db.wal.all_bytes() != log  # the UPDATE is logged
    assert set(db.txn_manager._pending.values()) == {s1.txn_id}
    s2 = db.session()
    s2.begin()
    with pytest.raises(TxnConflictError):
        s2.update("t", 1, {"v": 7})
    del index.note_update
    assert s1.update("t", 1, {"v": 6})
    s1.abort()
    assert db.txn_manager._pending == {}
    assert t.lookup("pk", 1).values == {"id": 1, "v": 10}


def test_refused_session_insert_releases_its_claim():
    db = Database(data_pool_pages=64, wal=True)
    db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    s1 = db.session()
    s1.begin()
    with pytest.raises(SchemaError):
        s1.insert("t", {"id": 1})
    assert db.txn_manager._pending == {}
    s2 = db.session()
    s2.begin()
    s2.insert("t", {"id": 1, "v": 2})
    s2.commit()
    s1.abort()
    assert db.table("t").lookup("pk", 1).values == {"id": 1, "v": 2}


def test_unknown_column_update_is_refused_before_the_log():
    db = Database(data_pool_pages=64, wal=True)
    t = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    t.insert({"id": 1, "v": 10})
    log = db.wal.all_bytes()
    with pytest.raises(QueryError, match="has no columns"):
        t.update("pk", 1, {"vv": 5})
    assert db.wal.all_bytes() == log
    session = db.session()
    session.begin()
    with pytest.raises(QueryError, match="has no columns"):
        session.update("t", 1, {"vv": 5})
    assert db.wal.all_bytes() == log


def test_malformed_projection_does_not_silence_the_profiler():
    db = Database(data_pool_pages=64)
    t = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    t.insert({"id": 1, "v": 10})
    profiler = db.enable_profiling()
    trace = db.enable_tracing()
    t.lookup("pk", 1)
    assert profiler.operations == 1
    with pytest.raises(TypeError):
        t.lookup("pk", 1, project=5)
    assert trace.active is None
    assert trace.traces()[-1].root.error  # the refused op's trace, closed
    for _ in range(6):
        t.lookup("pk", 1)
    assert profiler.operations == 7
    assert len(trace.traces()) == 8
    assert trace.active is None
