"""Database facade: DDL, pools, and cost wiring."""

import pytest

from repro.errors import CatalogError, QueryError
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.sim.cost_model import CostModel

SCHEMA = Schema.of(("id", UINT64), ("name", char(8)), ("score", UINT32))


def test_create_table_and_index_then_query():
    db = Database(data_pool_pages=64)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "t_pk", ("id",))
    table.insert({"id": 1, "name": "a", "score": 10})
    result = table.lookup("t_pk", 1)
    assert result.values == {"id": 1, "name": "a", "score": 10}


def test_cached_index_through_facade():
    db = Database(data_pool_pages=64, seed=3)
    table = db.create_table("t", SCHEMA)
    db.create_cached_index("t", "t_name", ("name",), ("score",))
    table.insert({"id": 1, "name": "a", "score": 10})
    table.lookup("t_name", "a", ("name", "score"))
    r = table.lookup("t_name", "a", ("name", "score"))
    assert r.from_cache


def test_duplicate_table_rejected():
    db = Database()
    db.create_table("t", SCHEMA)
    with pytest.raises(CatalogError):
        db.create_table("t", SCHEMA)


def test_index_on_populated_table_rejected():
    db = Database()
    table = db.create_table("t", SCHEMA)
    table.insert({"id": 1, "name": "a", "score": 0})
    with pytest.raises(QueryError):
        db.create_index("t", "late", ("id",))
    with pytest.raises(QueryError):
        db.create_cached_index("t", "late2", ("id",), ("score",))


def test_drop_table():
    db = Database()
    db.create_table("t", SCHEMA)
    db.drop_table("t")
    with pytest.raises(CatalogError):
        db.table("t")


def test_drop_table_refused_on_a_logged_database():
    """The log has no DROP record, so recovery would bring a dropped table
    back with its rows; a WAL-armed database refuses the drop before it
    touches the catalog or the log."""
    db = Database(wal=True)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    table.insert({"id": 1, "name": "a", "score": 0})
    log = db.wal.all_bytes()
    with pytest.raises(QueryError, match="WAL"):
        db.drop_table("t")
    assert db.catalog.table_names == ["t"]
    assert db.table("t") is table
    assert db.wal.all_bytes() == log


def test_shared_vs_separate_index_pool():
    shared = Database(data_pool_pages=64)
    assert shared.index_pool is shared.data_pool
    split = Database(data_pool_pages=64, index_pool_pages=32)
    assert split.index_pool is not split.data_pool
    assert split.index_pool.capacity == 32


def test_cost_model_hooked_into_pools():
    cm = CostModel()
    db = Database(data_pool_pages=2, cost_model=cm)
    table = db.create_table("t", SCHEMA, append_only=True)
    db.create_index("t", "t_pk", ("id",))
    for i in range(50):
        table.insert({"id": i, "name": "x", "score": 0})
    before = cm.now_ns
    table.lookup("t_pk", 0)
    assert cm.now_ns > before  # lookups charge simulated time


def test_append_only_table_flag():
    db = Database()
    table = db.create_table("t", SCHEMA, append_only=True)
    assert table.heap.append_only


def test_catalog_registration():
    db = Database()
    db.create_table("t", SCHEMA)
    db.create_index("t", "t_pk", ("id",))
    assert db.catalog.table_names == ["t"]
    assert db.table("t").index_names == ["t_pk"]
    assert db.table("t").index("t_pk").key_codec.columns == ("id",)
