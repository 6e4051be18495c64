"""Cross-module integration: the full stack working together."""

import pytest

from repro.btree.stats import collect_stats
from repro.core.hot_cold.cluster import cluster_hot_tuples
from repro.core.index_cache.advisor import QueryClass, select_cached_fields
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.sim.cost_model import CostModel
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution
from repro.workload.wikipedia import (
    PAGE_SCHEMA,
    WikipediaConfig,
    generate,
    name_title_lookup_trace,
)


def test_wikipedia_page_table_through_database_facade():
    """The §2.1.4 scenario end-to-end via the public API."""
    db = Database(data_pool_pages=4096, seed=1)
    data = generate(WikipediaConfig(n_pages=300, revisions_per_page_mean=2))
    table = db.create_table("page", PAGE_SCHEMA)
    db.create_cached_index(
        "page", "name_title", ("page_namespace", "page_title"),
        cached_fields=("page_id", "page_latest", "page_touched", "page_len"),
    )
    rows = list(data.page_rows)
    DeterministicRng(2).shuffle(rows)
    for row in rows:
        table.insert(row)
    trace = name_title_lookup_trace(data, 4000, seed=3)
    project = ("page_namespace", "page_title", "page_id", "page_latest")
    for key in trace:
        result = table.lookup("name_title", key, project)
        assert result.found
    index = table.index("name_title")
    assert index.stats.cache_answer_rate > 0.5
    # spot-check correctness against the generator's ground truth
    row = data.page_rows[17]
    got = table.lookup(
        "name_title", (row["page_namespace"], row["page_title"]), project
    )
    assert got.values["page_id"] == row["page_id"]
    assert got.values["page_latest"] == row["page_latest"]


def test_advisor_agrees_with_manual_choice():
    """Feed the advisor the §2.1.4 workload; it should cache the 4 fields
    the paper hand-picked."""
    stats = collect_stats_for_page_table()
    queries = [
        QueryClass.of(
            ["page_namespace", "page_title", "page_id", "page_latest",
             "page_touched", "page_len"], 0.4,
        ),
        QueryClass.of(["page_namespace", "page_title"], 0.6),
    ]
    choice = select_cached_fields(
        PAGE_SCHEMA, ("page_namespace", "page_title"), [], queries,
        free_bytes_per_page=stats,
    )
    assert set(choice.fields) == {
        "page_id", "page_latest", "page_touched", "page_len"
    }


def collect_stats_for_page_table() -> float:
    db = Database(data_pool_pages=4096, seed=4)
    table = db.create_table("page", PAGE_SCHEMA)
    index = db.create_index(
        "page", "nt", ("page_namespace", "page_title")
    )
    data = generate(WikipediaConfig(n_pages=200, revisions_per_page_mean=2))
    rows = list(data.page_rows)
    DeterministicRng(5).shuffle(rows)
    for row in rows:
        table.insert(row)
    stats = collect_stats(index.tree)
    return stats.free_bytes_total / stats.leaf_pages


def test_cluster_then_cache_compose():
    """Clustering and index caching are orthogonal: both together."""
    schema = Schema.of(("id", UINT64), ("val", UINT32), ("pad", char(30)))
    db = Database(data_pool_pages=4096, seed=6)
    table = db.create_table("t", schema, append_only=True)
    db.create_cached_index("t", "t_pk", ("id",), cached_fields=("val",))
    for i in range(500):
        table.insert({"id": i, "val": i * 3, "pad": "x"})
    index = table.index("t_pk")
    hot_ids = list(range(0, 500, 25))
    hot_keys = [index.encode_key(i) for i in hot_ids]
    cluster_hot_tuples(table.heap, index.tree, hot_keys)
    # after relocation, lookups still return correct values (index values
    # were rewritten) and caching still works
    for i in hot_ids:
        r = index.lookup(i, ("id", "val"))
        assert r.values == {"id": i, "val": i * 3}
    r = index.lookup(hot_ids[0], ("id", "val"))
    assert r.from_cache


def test_cost_model_end_to_end_accounting():
    """Simulated time must equal the sum of charged events."""
    cm = CostModel()
    db = Database(data_pool_pages=4, cost_model=cm, seed=7)
    schema = Schema.of(("id", UINT64), ("pad", char(50)))
    table = db.create_table("t", schema, append_only=True)
    db.create_index("t", "pk", ("id",))
    for i in range(600):
        table.insert({"id": i, "pad": "p"})
    cm.reset()
    # the pool (the index shares it) counts what the clock charged for
    pool, writebacks = db.data_pool, db.metrics.counter("bufferpool.writeback")
    before = (pool.hits, pool.misses, writebacks.value)
    zipf = ZipfianDistribution(600, 1.0, DeterministicRng(8))
    for _ in range(500):
        table.lookup("pk", zipf.sample())
    hits, misses, writes = (
        now - then for now, then in
        zip((pool.hits, pool.misses, writebacks.value), before)
    )
    p = cm.preset
    expected = (
        hits * p.bp_access_ns
        + misses * (p.bp_access_ns + p.disk_read_ns)
        + writes * p.disk_write_ns
    )
    assert cm.now_ns == pytest.approx(expected)
    assert misses > 0  # the 4-frame pool must thrash


def test_crash_semantics_cache_is_volatile():
    """Evicting an undirtied page must drop cache contents but keep data:
    the 'cache modifications do not dirty the page' contract."""
    cm = CostModel()
    db = Database(data_pool_pages=4, index_pool_pages=4, seed=9)
    schema = Schema.of(("id", UINT64), ("val", UINT32), ("pad", char(40)))
    table = db.create_table("t", schema)
    db.create_cached_index("t", "pk", ("id",), cached_fields=("val",))
    for i in range(200):
        table.insert({"id": i, "val": i, "pad": "x"})
    index = table.index("pk")
    # fill caches, then thrash both pools to force eviction of leaves
    for i in range(200):
        index.lookup(i, ("id", "val"))
    for i in range(200):
        r = index.lookup(i, ("id", "val"))
        assert r.found
        assert r.values == {"id": i, "val": i}  # data always correct
