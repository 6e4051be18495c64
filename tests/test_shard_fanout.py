"""Sharded scatter-gather vs a single unsharded oracle engine.

The contract: for any predicate shape, projection, and batch,
``ShardedDatabase`` returns results *identical* to one engine holding
all the rows — lookups positionally, scans in ascending routing-key
order (the sharded scan's documented order), aggregates exactly.
"""

import pytest

from repro.errors import QueryError, TypeMismatchError
from repro.obs.registry import MetricsRegistry
from repro.query.database import Database
from repro.query.predicates import (
    And,
    ColumnEq,
    ColumnIn,
    ColumnRange,
    Not,
    Or,
    TruePredicate,
)
from repro.schema.schema import Schema
from repro.schema.types import BOOL, INT32, UINT32, UINT64, char
from repro.shard.database import ShardedDatabase

pytestmark = pytest.mark.shard

SCHEMA = Schema.of(
    ("id", UINT64), ("cat", char(4)), ("n", UINT32), ("d", INT32),
    ("flag", BOOL),
)

# The PR-8 predicate matrix (tests/test_columnar_executor.py), verbatim.
PREDICATES = [
    TruePredicate(),
    ColumnEq("cat", "c2"),
    ColumnEq("flag", True),
    ColumnIn.of("cat", ["c0", "c3"]),
    ColumnRange("n", 40, 160),
    ColumnRange("n", lo=200),
    ColumnRange("n", hi=30),
    ColumnRange("d", -10, 10),
    And((ColumnRange("n", 20, 200), ColumnEq("flag", False))),
    Or((ColumnEq("cat", "c1"), ColumnRange("n", 240, 250))),
    Not(ColumnEq("cat", "c4")),
    Not(And((ColumnEq("flag", True), ColumnRange("n", 0, 125)))),
    And(()),
    Or(()),
]

AGG_SPECS = [
    ("count", None), ("sum", "n"), ("min", "n"), ("max", "n"), ("avg", "d"),
]

N_ROWS = 700


def _rows(n=N_ROWS):
    return [
        {
            "id": i,
            "cat": f"c{i % 5}",
            "n": (i * 7) % 250,
            "d": (i % 50) - 25,
            "flag": i % 3 == 0,
        }
        for i in range(n)
    ]


def make_oracle(columnar=False):
    db = Database(seed=0)
    db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    table = db.table("t")
    for row in _rows():
        table.insert(row)
    if columnar:
        db.enable_columnar()
    return table


def make_sharded(n_shards=3, mode="hash", columnar=False, **kwargs):
    sdb = ShardedDatabase(n_shards, mode=mode, seed=0, **kwargs)
    sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    table = sdb.table("t")
    for row in _rows():
        table.insert(row)
    if columnar:
        sdb.enable_columnar()
    return sdb, table


def by_pk(rows):
    return sorted(rows, key=lambda r: r["id"])


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: repr(p)[:48])
def test_scan_matches_unsharded_oracle(predicate):
    oracle = make_oracle()
    _, table = make_sharded()
    expected = by_pk(oracle.scan(predicate))
    assert list(table.scan(predicate)) == expected


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: repr(p)[:48])
def test_aggregate_matches_unsharded_oracle(predicate):
    oracle = make_oracle()
    _, table = make_sharded()
    assert table.aggregate(AGG_SPECS, predicate) == oracle.aggregate(
        AGG_SPECS, predicate
    )


def test_scan_projection_matches_oracle():
    oracle = make_oracle()
    _, table = make_sharded()
    predicate = ColumnRange("n", 10, 90)
    for project in (("id",), ("n", "cat"), ("flag", "d"), ("d", "id")):
        expected = by_pk(oracle.scan(predicate, project + ("id",)))
        expected = [
            {name: row[name] for name in project} for row in expected
        ]
        assert list(table.scan(predicate, project)) == expected


def test_columnar_armed_scan_and_aggregate_match_oracle():
    oracle = make_oracle(columnar=True)
    _, table = make_sharded(columnar=True)
    for predicate in PREDICATES[:8]:
        assert list(table.scan(predicate)) == by_pk(oracle.scan(predicate))
        assert table.aggregate(AGG_SPECS, predicate) == oracle.aggregate(
            AGG_SPECS, predicate
        )


def test_lookup_many_positional_with_dups_and_misses():
    oracle = make_oracle()
    _, table = make_sharded(n_shards=4)
    batch = [5, 999_999, 5, 17, 650, 0, 650, 123_456]
    got = table.lookup_many("pk", batch, ("id", "n"))
    want = oracle.lookup_many("pk", batch, ("id", "n"))
    assert [(r.found, r.values) for r in got] == [
        (r.found, r.values) for r in want
    ]


def test_lookup_many_empty_batch():
    _, table = make_sharded()
    assert table.lookup_many("pk", []) == []


def test_scalar_lookup_and_mutations_match_oracle():
    oracle = make_oracle()
    sdb, table = make_sharded()
    assert table.update("pk", 10, {"n": 999}) and oracle.update(
        "pk", 10, {"n": 999}
    )
    assert table.delete("pk", 11) and oracle.delete("pk", 11)
    assert not table.update("pk", 10**9, {"n": 1})
    assert not table.delete("pk", 10**9)
    for key in (10, 11, 12, 10**9):
        got, want = table.lookup("pk", key), oracle.lookup("pk", key)
        assert (got.found, got.values) == (want.found, want.values)
    assert list(table.scan()) == by_pk(oracle.scan())
    assert sdb.check().ok


def test_non_routing_index_broadcasts():
    """A second unique index doesn't drive placement; lookups/updates on
    it broadcast and still agree with the oracle."""
    oracle_db = Database(seed=0)
    oracle_db.create_table("t", SCHEMA)
    oracle_db.create_index("t", "pk", ("id",))
    oracle_db.create_index("t", "by_nd", ("n", "d", "id"))
    oracle = oracle_db.table("t")
    sdb = ShardedDatabase(3, seed=0)
    sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    sdb.create_index("t", "by_nd", ("n", "d", "id"))
    table = sdb.table("t")
    for row in _rows(200):
        oracle.insert(row)
        table.insert(row)
    assert table.routing_index == "pk"  # first index wins
    key = ((3 * 7) % 250, (3 % 50) - 25, 3)  # row id=3's composite key
    got, want = table.lookup("by_nd", key), oracle.lookup("by_nd", key)
    assert (got.found, got.values) == (want.found, want.values)
    miss = table.lookup("by_nd", (1, 1, 10**9))
    assert not miss.found
    assert table.update("by_nd", key, {"flag": False}) == oracle.update(
        "by_nd", key, {"flag": False}
    )
    assert table.delete("by_nd", key) == oracle.delete("by_nd", key)
    assert list(table.scan()) == by_pk(oracle.scan())


def test_zipf_rebalance_preserves_results():
    """Heat a skewed key set, rebalance (rows migrate between shards),
    and every read answer must be unchanged."""
    oracle = make_oracle()
    sdb, table = make_sharded(n_shards=4, mode="zipf", wal=True)
    hot = [1, 2, 3, 5, 8, 13, 21, 34]
    for _ in range(40):
        for key in hot:
            table.lookup("pk", key)
    report = sdb.rebalance()
    assert report.keys_moved > 0
    assert sdb.check().ok  # exactly-one-owner after migrating
    assert list(table.scan()) == by_pk(oracle.scan())
    for key in hot + [0, 699, 10**9]:
        got, want = table.lookup("pk", key), oracle.lookup("pk", key)
        assert (got.found, got.values) == (want.found, want.values)
    got = table.lookup_many("pk", hot + hot)
    want = oracle.lookup_many("pk", hot + hot)
    assert [(r.found, r.values) for r in got] == [
        (r.found, r.values) for r in want
    ]
    assert table.aggregate(AGG_SPECS) == oracle.aggregate(AGG_SPECS)


def test_num_rows_totals_shards():
    _, table = make_sharded()
    assert table.num_rows == N_ROWS
    per_shard = [table.shard_table(i).num_rows for i in range(3)]
    assert sum(per_shard) == N_ROWS
    assert all(c > 0 for c in per_shard)  # hash placement actually spreads


def test_snapshot_namespaces_per_shard():
    metrics = MetricsRegistry()
    sdb, table = make_sharded(metrics=metrics)
    table.lookup("pk", 1)
    snap = sdb.snapshot()
    assert snap["shard"]["count"] == 3.0
    assert snap["shard"]["router"]["routes"] > 0
    for i in range(3):
        assert "bufferpool" in snap["shard"][str(i)]
    # Parent instruments live on the parent registry only.
    assert "router" not in snap["shard"]["0"]


def test_reset_counters_covers_shard_family():
    metrics = MetricsRegistry()
    sdb, table = make_sharded(metrics=metrics, mode="zipf", wal=True)
    for key in (1, 1, 1, 2, 3):
        table.lookup("pk", key)
    sdb.rebalance()
    assert metrics.get("shard.router.routes").value > 0
    metrics.reset()
    for i in range(3):
        sdb.shard_registry(i).reset()
    snap = sdb.snapshot()
    assert snap["shard"]["router"]["routes"] == 0
    assert snap["shard"]["fanout"]["ops"] == 0
    assert snap["shard"]["rebalance"]["runs"] == 0
    for i in range(3):
        assert snap["shard"][str(i)]["bufferpool"]["hit"] == 0
        assert snap["shard"][str(i)]["bufferpool"]["miss"] == 0
        assert snap["shard"][str(i)].get("wal", {}).get("records", 0) == 0
    # Level gauges keep their values: the shards still exist.
    assert snap["shard"]["count"] == 3.0
    assert snap["shard"]["router"]["overrides"] == float(
        len(sdb.router._overrides)
    )
    # And the facade still works after the wipe, counting from zero.
    assert table.lookup("pk", 1).found
    assert metrics.get("shard.router.routes").value > 0


def test_sim_clock_advances_by_max_over_shards():
    sdb, table = make_sharded()
    before = sdb.sim_now_ns
    table.lookup("pk", 1)
    one_shard = sdb.sim_now_ns - before
    assert one_shard >= 0
    before = sdb.sim_now_ns
    list(table.scan(project=("id",)))
    fanout = sdb.sim_now_ns - before
    # A full scatter scan costs at most the sum of per-shard clocks and
    # at least the slowest shard; with 3 shards the max-combine must be
    # comfortably under the serial sum.
    serial = sum(
        sdb.shard(i).cost_model.now_ns for i in range(3)
    )
    assert 0 <= fanout <= serial


def _fleet_state(sdb):
    """Every shard's index names and WAL bytes (pending tail included)."""
    sdb.flush_wals()
    return [
        (db.table("t").index_names, bytes(db.wal.device.data))
        for db in sdb.shards
    ]


@pytest.mark.parametrize("ddl", ["create_index", "create_cached_index"])
def test_index_ddl_on_a_table_with_rows_is_refused_before_any_shard(ddl):
    """The fan-out used to reach the row's owner last: the two empty
    shards attached and WAL-logged ``by_n``, the third raised, and a retry
    raised "already attached" with ``check().ok`` still True."""
    sdb = ShardedDatabase(3, seed=0, wal=True)
    sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    table = sdb.table("t")
    table.insert(_rows(1)[0])
    before = _fleet_state(sdb)
    extra = {"cached_fields": ("d",)} if ddl == "create_cached_index" else {}
    for _ in range(2):  # a retry raises the same error
        with pytest.raises(QueryError, match=r"already has rows \(no back-fill"):
            getattr(sdb, ddl)("t", "by_n", ("n",), **extra)
        assert _fleet_state(sdb) == before
    assert [names for names, _ in before] == [["pk"]] * 3
    assert sdb.check().ok
    table.insert(_rows(2)[1])
    assert table.lookup("pk", 1).found


def test_check_names_the_shard_whose_catalog_diverged():
    sdb = ShardedDatabase(3, seed=0)
    sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    assert sdb.check().ok
    sdb.shard(1).create_index("t", "by_n", ("n",))
    report = sdb.check()
    assert not report.ok
    assert len(report.problems) == 1
    assert "shard 1" in report.problems[0] and "by_n" in report.problems[0]
    # same name and columns, other kind
    sdb.shard(0).create_index("t", "by_n", ("n",))
    sdb.shard(2).create_cached_index("t", "by_n", ("n",), cached_fields=("d",))
    report = sdb.check()
    assert [p for p in report.problems if "shard 2" in p]
    assert not [p for p in report.problems if "shard 1" in p]


def test_wrong_arity_key_is_a_type_mismatch_on_routed_and_broadcast_lookups():
    sdb = ShardedDatabase(3, seed=0)
    sdb.create_table("t", SCHEMA)
    sdb.create_index("t", "pk", ("id",))
    sdb.create_index("t", "by_nd", ("n", "d", "id"))
    table = sdb.table("t")
    for row in _rows(30):
        table.insert(row)
    with pytest.raises(TypeMismatchError, match="expects 1 part, got 2"):
        table.lookup("pk", (1, 2))
    with pytest.raises(TypeMismatchError, match="expects 3 parts, got 1"):
        table.lookup("by_nd", 7)
    assert table.lookup("pk", 7).found
