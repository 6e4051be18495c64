"""Lint: every runtime metric name must be documented in DESIGN.md §5e.

The "Metric-name table" is the contract operators read; a counter that
exists only in code is invisible telemetry.  This parses the table's
backticked names as ``fnmatch`` patterns (glob rows cover dynamic
families like ``faults.kind.*``) and asserts every name a real workload
registers matches some row.
"""

import fnmatch
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.obs

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


def _documented_patterns():
    text = DESIGN.read_text()
    start = text.index("### Metric-name table")
    section = text[start:text.index("\n## ", start)]
    patterns = []
    for line in section.splitlines():
        if not line.startswith("|") or "---" in line:
            continue
        name_cell = line.split("|")[1]
        patterns += re.findall(r"`([a-z0-9_.*{}]+)`", name_cell)
    return patterns


def _flatten(tree, prefix=""):
    """Dotted leaf names of a ``registry.snapshot()`` tree (a histogram's
    summary dict, marked by its ``buckets`` key, is one leaf)."""
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict) and "buckets" not in value:
            yield from _flatten(value, f"{name}.")
        else:
            yield name


def _columnar_names():
    """The §5h batch executor's ``columnar.*`` family (mirror gauges,
    fragment-cache counters): a columnar engine whose scans and
    aggregates repeat between writes, so maintenance, cached answers and
    dropped ones all register."""
    from repro.obs import MetricsRegistry
    from repro.query.database import Database
    from repro.query.predicates import ColumnRange
    from repro.schema import UINT32, UINT64, Schema, char

    registry = MetricsRegistry()
    db = Database(metrics=registry, data_pool_pages=16)
    table = db.create_table(
        "t", Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))
    )
    db.create_index("t", "pk", ("k",))
    for k in range(120):
        table.insert({"k": k, "name": f"r{k}", "n": k % 97})
    mirror = db.enable_columnar()
    for k in range(4):
        for _ in range(2):
            table.aggregate([("count", None), ("sum", "n")],
                            ColumnRange("n", 0, 48))
            list(table.scan(ColumnRange("n", 0, 8), project=("k", "n")))
        table.update("pk", k, {"n": (k * 31) % 1_000})
    mirror.refresh_encoding_stats()
    return registry.names()


def _runtime_names():
    from repro.faults.harness import run_fault_drill
    from repro.obs.__main__ import run_observed_workload

    # adaptive=True arms the controller, so the ``adaptive.*`` loop
    # counters and knob gauges register alongside the v2 pipeline's.
    run = run_observed_workload(
        n_rows=120, n_ops=600, samples=4, pool_pages=16, adaptive=True,
    )
    names = set(run.registry.names()) | set(_columnar_names())
    # The fault drill reaches the names the clean workload never touches:
    # the fault ledger, recovery actions, and WAL crash-restart replay.
    report = run_fault_drill(n_pages=60, n_ops=300, seed=1)
    names.update(_flatten(report.metrics))
    # Sessions mode registers the ``txn.*`` family (MVCC lifecycle,
    # conflicts, undo) and the replay rollback counter.
    report = run_fault_drill(n_pages=60, n_ops=300, seed=1, sessions=4)
    names.update(_flatten(report.metrics))
    # Sharded mode registers the §5i facade family (router, fanout,
    # rebalance, migration) plus every per-engine name under its
    # ``shard.<i>.`` prefix; the sharded drill also arms §5j, so the
    # ``trace.*`` / ``events.*`` / ``fleet.*`` families register too.
    report = run_fault_drill(n_pages=60, n_ops=300, seed=1, shards=2)
    names.update(_flatten(report.metrics))
    return names


def test_table_parses():
    patterns = _documented_patterns()
    assert len(patterns) > 30
    assert "bufferpool.hit" in patterns
    assert "faults.kind.*" in patterns
    assert "adaptive.knob.*" in patterns
    assert "adaptive.actions" in patterns
    assert "txn.commits" in patterns
    assert "txn.conflicts" in patterns
    assert "columnar.scans" in patterns
    assert "columnar.cache.hits" in patterns
    assert "shard.fanout.ops" in patterns
    assert "shard.recovery.*" in patterns
    assert "shard.*.*" in patterns
    assert "trace.fanout" in patterns
    assert "trace.spans" in patterns
    assert "events.emitted" in patterns
    assert "fleet.imbalance.heat" in patterns
    assert "fleet.*" in patterns


def test_every_runtime_metric_name_is_documented():
    patterns = _documented_patterns()
    undocumented = sorted(
        name
        for name in _runtime_names()
        if not any(fnmatch.fnmatchcase(name, p) for p in patterns)
    )
    assert not undocumented, (
        "metric names missing from the DESIGN.md §5e table: "
        f"{undocumented}"
    )


def test_documented_static_names_exist_at_runtime():
    """The table must not advertise dead names (globs are exempt —
    dynamic families legitimately depend on the workload)."""
    names = _runtime_names()
    static = [p for p in _documented_patterns() if "*" not in p]
    dead = sorted(p for p in static if p not in names)
    # A few static names only appear in workloads this test doesn't run
    # (encoding migration, hot/cold experiments); keep the leash short.
    assert len(dead) <= 8, f"suspiciously many dead documented names: {dead}"
