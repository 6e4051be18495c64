"""Catalog registration and lookups.

The catalog holds tables only; a table holds its own indexes, so the
index half is checked through :class:`Database`, which owns both.
"""

from types import SimpleNamespace

import pytest

from repro.errors import CatalogError, QueryError
from repro.query.database import Database
from repro.schema.catalog import Catalog
from repro.schema.schema import Schema
from repro.schema.types import UINT32


@pytest.fixture
def catalog() -> Catalog:
    return Catalog()


SCHEMA = Schema.of(("id", UINT32))


def _table(name: str) -> SimpleNamespace:
    return SimpleNamespace(name=name, schema=SCHEMA)


def test_register_and_fetch_table(catalog):
    sentinel = _table("t")
    catalog.register_table(sentinel)
    entry = catalog.table("t")
    assert entry is sentinel
    assert entry.schema is SCHEMA
    assert catalog.table_names == ["t"]


def test_duplicate_table_rejected(catalog):
    catalog.register_table(_table("t"))
    with pytest.raises(CatalogError, match="already exists"):
        catalog.register_table(_table("t"))


def test_unknown_table_raises(catalog):
    with pytest.raises(CatalogError):
        catalog.table("nope")


def test_register_index_links_to_table():
    db = Database()
    table = db.create_table("t", SCHEMA)
    idx = db.create_index("t", "i", ("id",))
    assert table.index("i") is idx
    assert table.index_names[0] == "i"
    assert db.table("t").index_names == ["i"]


def test_index_requires_existing_table():
    db = Database()
    with pytest.raises(CatalogError):
        db.create_index("missing", "i", ("id",))


def test_duplicate_index_rejected():
    db = Database()
    db.create_table("t", SCHEMA)
    db.create_table("u", SCHEMA)
    db.create_index("t", "i", ("id",))
    with pytest.raises(CatalogError, match="already exists"):
        db.create_index("u", "i", ("id",))
    with pytest.raises(QueryError, match="already attached"):
        db.create_index("t", "i", ("id",))
    assert db.table("u").index_names == []


def test_drop_table_removes_indexes():
    db = Database()
    db.create_table("t", SCHEMA)
    db.create_index("t", "i", ("id",))
    db.drop_table("t")
    assert "t" not in db.catalog.table_names
    # the name went with its table
    db.create_table("u", SCHEMA)
    db.create_index("u", "i", ("id",))
    assert db.table("u").index_names == ["i"]


def test_tables_iterates_all(catalog):
    catalog.register_table(_table("a"))
    catalog.register_table(_table("b"))
    assert sorted(e.name for e in catalog.tables()) == ["a", "b"]
