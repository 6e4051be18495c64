"""§5j fleet rollups: fleet.* materialization, the sharded snapshot,
skew stats, selector rewriting, and the fleet SLO wiring."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.health import DEFAULT_SLO_RULES, HealthChecker
from repro.obs.rollup import (
    FLEET_SLO_RULES,
    FleetRollup,
    FleetStat,
    fleet_rules,
    fleet_selector,
)
from repro.obs.sampler import TelemetrySampler
from repro.schema import UINT32, UINT64, Schema

pytestmark = pytest.mark.trace


def _shards(n=2):
    regs = [MetricsRegistry() for _ in range(n)]
    return MetricsRegistry(), regs


# -- rollup materialization ---------------------------------------------------


def test_refresh_materializes_sums_and_stays_monotonic():
    parent, regs = _shards(2)
    regs[0].counter("wal.bytes").inc(100)
    regs[1].counter("wal.bytes").inc(300)
    regs[0].gauge("bufferpool.resident").set(4)
    regs[1].gauge("bufferpool.resident").set(6)
    regs[0].histogram("batch.rows").record(8)
    regs[1].histogram("batch.rows").record(8)
    regs[1].histogram("batch.rows").record(1024)

    rollup = FleetRollup(registries=regs, target=parent)
    stats = rollup.refresh()
    assert parent.counter("fleet.wal.bytes").value == 400
    assert parent.gauge("fleet.bufferpool.resident").value == 10
    assert parent.histogram("fleet.batch.rows").count == 3
    assert stats["wal.bytes"].per_shard == (100, 300)

    # Counters advance by delta: a second refresh after more traffic
    # lands on the new sum, never double-counting.
    regs[0].counter("wal.bytes").inc(50)
    rollup.refresh()
    assert parent.counter("fleet.wal.bytes").value == 450
    assert parent.counter("fleet.refreshes").value == 2


def test_heat_imbalance_is_first_class():
    parent, regs = _shards(3)
    for i, reg in enumerate(regs):
        reg.counter("bufferpool.hit").inc(10)
    regs[2].counter("bufferpool.miss").inc(30)  # shard 2 runs hot
    rollup = FleetRollup(registries=regs, target=parent)
    rollup.refresh()
    # heat = [10, 10, 40], mean 20 -> imbalance 2.0, hot shard 2.
    assert parent.gauge("fleet.imbalance.heat").value == pytest.approx(2.0)
    assert parent.gauge("fleet.imbalance.hot_shard").value == 2
    assert parent.gauge("fleet.shards").value == 3
    assert "heat imbalance 2.00x" in rollup.format()


def test_fleet_stat_and_top_skewed():
    stat = FleetStat("m", total=30, per_shard=(5, 25))
    assert (stat.min, stat.max, stat.mean) == (5, 25, 15.0)
    assert stat.imbalance == pytest.approx(25 / 15)
    assert FleetStat("z", 0, (0, 0)).imbalance == 0.0

    parent, regs = _shards(2)
    regs[0].counter("a.skewed").inc(9)
    regs[1].counter("a.skewed").inc(1)
    regs[0].counter("b.flat").inc(5)
    regs[1].counter("b.flat").inc(5)
    regs[0].counter("c.zero")
    regs[1].counter("c.zero")
    rollup = FleetRollup(registries=regs, target=parent)
    rollup.refresh()
    ranked = rollup.top_skewed(5)
    assert [s.name for s in ranked] == ["a.skewed", "b.flat"]  # zeros drop


def test_rollup_from_sharded_database_source():
    from repro.shard.database import ShardedDatabase

    sdb = ShardedDatabase(2, mode="hash", seed=8)
    t = sdb.create_table("t", Schema.of(("k", UINT64), ("v", UINT32)))
    sdb.create_index("t", "pk", ("k",))
    rollup = sdb.enable_rollup()
    assert sdb.enable_rollup() is rollup  # idempotent
    for i in range(20):
        t.insert({"k": i, "v": i})
    rollup.refresh()
    hit = sdb.metrics.counter("fleet.bufferpool.hit").value
    assert hit == sum(
        sdb.shard_registry(i).counter("bufferpool.hit").value
        for i in range(2)
    )
    assert sdb.snapshot()["shard"]["0"]["bufferpool"]["hit"] > 0


def test_sharded_snapshot_nests_each_shard_registry_under_its_index():
    """``ShardedDatabase.snapshot()`` is the facade registry's snapshot
    with shard ``i``'s own snapshot under ``["shard"][str(i)]``, beside
    the facade's ``shard.*`` instruments."""
    from repro.shard.database import ShardedDatabase

    sdb = ShardedDatabase(2, mode="hash", seed=8)
    t = sdb.create_table("t", Schema.of(("k", UINT64), ("v", UINT32)))
    sdb.create_index("t", "pk", ("k",))
    for i in range(20):
        t.insert({"k": i, "v": i})
    for k in range(0, 20, 3):
        t.lookup("pk", k)
    snap = sdb.snapshot()
    for i in range(2):
        shard_snap = sdb.shard_registry(i).snapshot()
        assert shard_snap["bufferpool"]["hit"] > 0
        assert snap["shard"][str(i)] == shard_snap
    facade = sdb.metrics.snapshot()
    assert {k: v for k, v in snap.items() if k != "shard"} == {
        k: v for k, v in facade.items() if k != "shard"
    }
    assert {k: v for k, v in snap["shard"].items() if k not in ("0", "1")} == (
        facade["shard"]
    )


def test_fleet_counter_equals_shard_sum_after_a_shard_reset():
    """A shard registry reset shrinks the shard sum below the fleet
    counter; the next refresh lands the counter on the sum again."""
    from repro.shard.database import ShardedDatabase

    sdb = ShardedDatabase(2, mode="hash", seed=8)
    t = sdb.create_table("t", Schema.of(("k", UINT64), ("v", UINT32)))
    sdb.create_index("t", "pk", ("k",))
    rollup = sdb.enable_rollup()
    for i in range(20):
        t.insert({"k": i, "v": i})
    rollup.refresh()
    fleet = sdb.metrics.counter("fleet.bufferpool.hit")
    before = fleet.value
    for i in range(2):
        sdb.shard_registry(i).reset()
    for k in range(5):
        t.lookup("pk", k)
    rollup.refresh()
    total = sum(
        sdb.shard_registry(i).counter("bufferpool.hit").value
        for i in range(2)
    )
    assert 0 < total < before
    assert rollup.stats["bufferpool.hit"].total == total
    assert fleet.value == total


# -- selector rewriting and fleet SLO rules -----------------------------------


def test_fleet_selector_rewrites_every_kind():
    assert fleet_selector("rate.wal.bytes") == "rate.fleet.wal.bytes"
    assert (
        fleet_selector("derived.bufferpool.hit_rate")
        == "derived.fleet.bufferpool.hit_rate"
    )
    assert fleet_selector("gauge.g.x") == "gauge.fleet.g.x"
    assert fleet_selector("p95.span.lookup.ns") == "p95.fleet.span.lookup.ns"
    assert (
        fleet_selector("ratio:rate.wal.bytes/rate.profiler.ops")
        == "ratio:rate.fleet.wal.bytes/rate.fleet.profiler.ops"
    )
    assert fleet_selector("unknown") == "unknown"  # no kind head: untouched


def test_fleet_rules_retarget_default_slos():
    rules = fleet_rules(DEFAULT_SLO_RULES)
    assert len(rules) == len(DEFAULT_SLO_RULES)
    by_name = {r.name: r for r in rules}
    assert (
        by_name["bufferpool-hit-rate-floor"].selector
        == "derived.fleet.bufferpool.hit_rate"
    )
    # Everything but the selector is preserved.
    for rule, fleet_rule in zip(DEFAULT_SLO_RULES, rules):
        assert (rule.name, rule.op, rule.threshold) == (
            fleet_rule.name, fleet_rule.op, fleet_rule.threshold
        )


def test_fleet_slo_breach_and_clear_journal():
    from repro.obs.events import EventJournal

    parent, regs = _shards(3)
    clock = {"t": 0.0}
    for reg in regs:
        reg.counter("bufferpool.hit").inc(1)
    rollup = FleetRollup(registries=regs, target=parent)
    journal = EventJournal(registry=MetricsRegistry())
    sampler = TelemetrySampler(parent, clock=lambda: clock["t"])
    checker = HealthChecker(
        sampler, tuple(FLEET_SLO_RULES), journal=journal
    )
    rollup.refresh()
    sampler.sample()
    checker.evaluate()
    assert journal.query(kind="slo.*") == []  # balanced: nothing fires

    regs[0].counter("bufferpool.hit").inc(100)  # shard 0 goes hot:
    # heat [101, 1, 1] -> max/mean ~2.94 > 2.5
    rollup.refresh()
    clock["t"] = 1e9
    sampler.sample()
    report = checker.evaluate()
    assert not report.ok
    breaches = journal.query(kind="slo.breach")
    assert len(breaches) == 1
    assert dict(breaches[0].payload)["rule"] == "fleet_heat_balance"

    regs[1].counter("bufferpool.hit").inc(100)  # the others catch up
    regs[2].counter("bufferpool.hit").inc(100)
    rollup.refresh()
    clock["t"] = 2e9
    sampler.sample()
    assert checker.evaluate().ok
    clears = journal.query(kind="slo.clear")
    assert len(clears) == 1
    assert clears[0].seq > breaches[0].seq  # causal: breach before clear
