"""The row executor's answers, pinned before its decode is narrowed.

A seeded table with a CHAR column, tombstones and slots reused by later
inserts is scanned with ``use_columnar=False`` under every predicate
shape (the built-in nodes, a column the schema lacks and a predicate
class the engine does not know) and every projection shape (schema
order, reversed as a list, one column, none, a duplicated name, and one
that leaves out the column the predicate reads), and aggregated under
each predicate.  ``repr`` of the answers is hashed, so the rows, their
order, each dict's key order and the aggregate values are all pinned;
the same again through a three-shard :class:`ShardedTable`.  The edges
are pinned as behaviours: an unknown projected column, and a record of
the wrong length.
"""

import hashlib

import pytest

from repro import Database
from repro.errors import SchemaError
from repro.query.predicates import (
    ColumnEq,
    ColumnIn,
    ColumnRange,
    Not,
    Predicate,
    TruePredicate,
)
from repro.schema.schema import Schema
from repro.schema.types import INT32, UINT32, UINT64, char
from repro.shard.database import ShardedDatabase
from repro.util.rng import DeterministicRng

SCHEMA = Schema.of(
    ("id", UINT64), ("name", char(10)), ("n", UINT32), ("d", INT32),
    ("cat", char(3)),
)
SPECS = [("count", None), ("sum", "n"), ("min", "name"), ("max", "id"),
         ("avg", "d")]


class OddId(Predicate):
    """A predicate class the engine knows nothing about: it may read any
    column, and reads two here."""

    def matches(self, row):
        return row["id"] % 2 == 1 and row["cat"] != "k2"


PREDICATES = {
    "none": None,
    "true": TruePredicate(),
    "eq_char": ColumnEq("cat", "k1"),
    "in": ColumnIn.of("n", range(0, 400, 3)),
    "range_and_not": ColumnRange("n", 100, 700) & ~ColumnEq("cat", "k0"),
    "or": ColumnRange("d", None, -50) | ColumnEq("name", "row-00042"),
    "not_range": Not(ColumnRange("id", 50, 250)),
    "missing_column": ColumnEq("nope", None),
    "unknown_class": OddId(),
}
PROJECTIONS = (
    None,
    SCHEMA.names,
    list(reversed(SCHEMA.names)),
    ("name",),
    (),
    ("n", "id", "n"),
    ("id",),
)

#: sha256 of ``repr`` of every projection's scan then the aggregate.
PINNED = {
    "none": "166391783843bff31b8969e98612a748f24f27df53b3d629afebe234030df189",
    "true": "166391783843bff31b8969e98612a748f24f27df53b3d629afebe234030df189",
    "eq_char": "a1c1b186bdc9d5d57e2698b122680d2eb456d640b6c6bc01bd546571ee45bcdb",
    "in": "681718ab2214dfc2e6ee9f99c7bba43a069f5b667584ed09430783a55ad7bda6",
    "range_and_not": "56e5030c30b3c63d39d8ab27931a9757b3401f04bc79962932c91cc3fd82d21a",
    "or": "2144563f1d9dae74cd0563ce7d2fe0a9bb822f553d4d40d2371b5928ee810ff4",
    "not_range": "b228e1735979d51987e51e29a56782bac5e2865fb209b4c43d4b742c580c52e0",
    "missing_column": "166391783843bff31b8969e98612a748f24f27df53b3d629afebe234030df189",
    "unknown_class": "5c4b5915d2aa2b5ea316bbeac57b6d2b84e5d93d607d79ba0aeaaf7b94e06481",
}
PINNED_SHARDED = {
    "none": "acb0c873493f548a44121a33f2ace3ae5a70c6e83eb0981b3a79bcac19f18e9f",
    "true": "acb0c873493f548a44121a33f2ace3ae5a70c6e83eb0981b3a79bcac19f18e9f",
    "eq_char": "ae7364106eb278d585a0326af6754fab646f82560cd7889ee827e047524d2b01",
    "in": "19c8c232c2b764dd907c29ee916f8b46e2bd3041e52d6a5e7509b49eb81d9053",
    "range_and_not": "cf5a08c9ba283021149f9906370037127919b757aa90f84fd522b8426654383c",
    "or": "5983b8fa8e31f8b176f92242a9467e7c0c67874e5cf87538ae438a7345ead6f9",
    "not_range": "46eef6e641a02f1bce1441bf44128666794cf1d72b4798b605538daab43fdfc4",
    "missing_column": "acb0c873493f548a44121a33f2ace3ae5a70c6e83eb0981b3a79bcac19f18e9f",
    "unknown_class": "67db332963b6e33b4153a91b8f3afc0d79b7e46efcc02bcb4ba927caeb4dc731",
}


def _row(i: int, rng: DeterministicRng) -> dict:
    return {
        "id": i,
        "name": f"row-{i:05d}"[: 10 - rng.randrange(3)],
        "n": rng.randrange(1000),
        "d": rng.randrange(400) - 200,
        "cat": f"k{rng.randrange(4)}",
    }


def _load(table, heaps) -> None:
    """Insert, delete a seeded third, reclaim the deleted bytes of each of
    ``heaps`` (as a WAL restore's page walk would), insert again: the
    later rows land in tombstoned slots of earlier pages, before rows
    inserted before them."""
    rng = DeterministicRng(41)
    for i in range(400):
        table.insert(_row(i, rng))
    for i in range(0, 400, 3):
        if rng.random() < 0.8:
            table.delete("pk", i)
    for heap in heaps:
        for page_id in heap.page_ids:
            with heap.pool.page(page_id, dirty=True) as page:
                page.compact()
        heap.adopt_pages(heap.page_ids)
    for i in range(400, 500):
        table.insert(_row(i, rng))


def _digest(table, predicate) -> str:
    answers = [
        list(table.scan(predicate, project, use_columnar=False))
        for project in PROJECTIONS
    ]
    answers.append(table.aggregate(SPECS, predicate, use_columnar=False))
    return hashlib.sha256(repr(answers).encode()).hexdigest()


def _table():
    db = Database(page_size=512, data_pool_pages=8, seed=5)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    _load(table, [table.heap])
    return table


def test_table_has_tombstones_and_reused_slots():
    table = _table()
    heap_keys = [
        (table.heap.page_ids.index(rid.page_id), rid.slot)
        for rid, _ in table.heap.scan()
    ]
    ids = [row["id"] for row in table.scan(None, ("id",), use_columnar=False)]
    assert heap_keys == sorted(heap_keys)
    assert table.num_rows == len(ids) < 500
    # rows that sit, in heap order, after a row inserted later
    overtaken = [b for a, b in zip(ids, ids[1:]) if b < a]
    assert len(overtaken) >= 20, overtaken


@pytest.mark.parametrize("shape", sorted(PREDICATES))
def test_row_scan_and_aggregate_pinned(shape):
    assert _digest(_table(), PREDICATES[shape]) == PINNED[shape]


@pytest.mark.parametrize("shape", sorted(PREDICATES))
def test_sharded_row_scan_and_aggregate_pinned(shape):
    sdb = ShardedDatabase(3, page_size=512, data_pool_pages=8, seed=5)
    table = sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    _load(table, [table.shard_table(i).heap for i in range(3)])
    assert _digest(table, PREDICATES[shape]) == PINNED_SHARDED[shape]


def test_unknown_projected_column_is_refused_at_the_first_matching_row():
    db = Database(page_size=512, data_pool_pages=8)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    assert list(table.scan(None, ("id", "nope"), use_columnar=False)) == []
    _load(table, [table.heap])
    rows = table.scan(None, ("id", "nope"), use_columnar=False)
    with pytest.raises(KeyError, match="nope"):
        next(rows)
    nothing = ColumnEq("cat", "absent")
    assert list(table.scan(nothing, ("nope",), use_columnar=False)) == []


def test_record_of_the_wrong_length_is_refused():
    table = _table()
    table.heap.insert(b"\x01" * (SCHEMA.record_size - 1))
    with pytest.raises(SchemaError, match="schema needs"):
        list(table.scan(None, ("id",), use_columnar=False))
    with pytest.raises(SchemaError, match="schema needs"):
        table.aggregate([("count", None)], use_columnar=False)
