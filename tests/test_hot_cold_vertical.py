"""Vertical partitioning: the recommender and the fragment table."""

import pytest

from repro.core.hot_cold.vertical import (
    VerticallyPartitionedTable,
    recommend_vertical_split,
)
from repro.errors import QueryError, SchemaError
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char

SCHEMA = Schema.of(
    ("id", UINT32),
    ("hot_a", UINT32),
    ("hot_b", UINT32),
    ("cold_blob", char(64)),
)
KEY = ("id",)


def queries():
    return [
        (frozenset({"hot_a", "hot_b"}), 0.9),
        (frozenset({"hot_a", "cold_blob"}), 0.1),
    ]


def test_recommendation_splits_by_appearance():
    plan = recommend_vertical_split(SCHEMA, KEY, queries(), hot_threshold=0.5)
    assert set(plan.hot_columns) == {"hot_a", "hot_b"}
    assert set(plan.cold_columns) == {"cold_blob"}
    assert plan.merge_fraction == pytest.approx(0.1)
    assert plan.bytes_per_query_split < plan.bytes_per_query_unsplit
    assert 0 < plan.bytes_per_query_split  # saves less than every byte


def test_recommendation_requires_positive_frequency():
    with pytest.raises(QueryError):
        recommend_vertical_split(SCHEMA, KEY, [(frozenset(), 0.0)])


def build_table(fragments):
    db = Database(page_size=512, data_pool_pages=1 << 20)
    for i, columns in enumerate(fragments):
        db.create_table(f"f{i}", SCHEMA.project([*KEY, *columns]))
        db.create_index(f"f{i}", f"f{i}_pk", KEY)
    tables = tuple(db.table(f"f{i}") for i in range(len(fragments)))
    return VerticallyPartitionedTable(SCHEMA, tables)


def row(i):
    return {"id": i, "hot_a": i, "hot_b": i * 2, "cold_blob": f"blob{i}"}


def test_insert_lookup_across_fragments():
    table = build_table((("hot_a", "hot_b"), ("cold_blob",)))
    for i in range(20):
        table.insert(row(i))
    full = table.lookup(5)
    assert full == {"id": 5, "hot_a": 5, "hot_b": 10, "cold_blob": "blob5"}


def test_projection_touches_only_needed_fragments():
    table = build_table((("hot_a", "hot_b"), ("cold_blob",)))
    table.insert(row(1))
    table.lookup(1, ("hot_a",))
    assert table.fragment_fetches == 1
    assert table.merges == 0
    table.lookup(1, ("hot_a", "cold_blob"))
    assert table.fragment_fetches == 3
    assert table.merges == 1


def test_split_reads_fewer_bytes():
    table = build_table((("hot_a", "hot_b"), ("cold_blob",)))
    table.insert(row(1))
    table.lookup(1, ("hot_a", "hot_b"))
    # hot fragment record = id(4) + hot_a(4) + hot_b(4)
    assert table.bytes_read == 12
    assert table.bytes_read < SCHEMA.record_size


def test_missing_key_returns_none():
    table = build_table((("hot_a", "hot_b"), ("cold_blob",)))
    assert table.lookup(9) is None


def test_key_only_projection():
    table = build_table((("hot_a", "hot_b"), ("cold_blob",)))
    table.insert(row(2))
    assert table.lookup(2, ("id",)) == {"id": 2}


def test_fragment_validation():
    with pytest.raises(SchemaError):
        build_table((("hot_a",), ("hot_a", "cold_blob")))  # duplicated
    with pytest.raises(SchemaError):
        build_table((("hot_a",),))  # hot_b, cold_blob uncovered
