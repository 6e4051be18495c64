"""Adaptive control: the telemetry loop closed over a shifting workload.

Two identical engines run the same three-phase workload from the same
deliberately mistuned static configuration:

* group commit of **1** (every WAL record pays a device append),
* index-cache admission of **0.25** (three of four piggy-back cache
  fills are thrown away),
* a data pool far below the heap working set, and
* a hot/cold rebalance epoch longer than the whole run (the hot
  partition never converges).

Phases: **A** a steady skewed scan, **B** a hot-set rotation with a
flatter skew (every phase reshuffles which ids are hot), **C** the same
rotated workload under a transient-fault storm.  The *static* engine
keeps its configuration; the *adaptive* engine runs the
:class:`~repro.obs.adaptive.AdaptiveController` end to end: sampler
windows feed SLO rules, sustained breaches step the live knobs (pool
partition, WAL group commit, cache admission, hot/cold cadence and
capacity), and every move lands in the audit ring printed below.

The demonstration this driver exists for: the tuned engine *holds* SLOs
the static configuration breaches for the whole run — while returning
bit-identical query answers, fault storm included.  Everything is
simulated-clock deterministic; rerunning produces the same breach
tallies and the same audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.core.hot_cold.manager import OnlineHotColdManager
from repro.core.hot_cold.partitioner import HotColdPartitionedTable
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs.adaptive import (
    AdaptiveController,
    KnobBinding,
    TuningAction,
    WAL_FLUSH_AMPLIFICATION_RULE,
    database_knobs,
    default_bindings,
    hot_cold_knobs,
)
from repro.obs.health import (
    DEFAULT_SLO_RULES,
    HealthChecker,
    HealthReport,
    SloRule,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.query.database import Database
from repro.query.table import PlainIndex, Table
from repro.schema import UINT32, Schema, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RID_SIZE
from repro.storage.retry import RetryPolicy
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution

SCHEMA = Schema.of(("k", UINT32), ("pad", char(24)), ("n", UINT32))
HC_SCHEMA = Schema.of(("item_id", UINT32), ("body", char(16)))

#: Experiment-local SLO: the managed hot partition must serve at least
#: half the tracked lookups per window.  Fed by the manager's per-lookup
#: ``hotcold.hit``/``hotcold.miss`` counters through the sampler's
#: derived-hit-rate selector.
HOTCOLD_HIT_RATE_RULE = SloRule(
    # the hot partition must absorb the skewed lookups
    name="hotcold-hit-rate-floor",
    selector="derived.hotcold.hit_rate",
    op=">=",
    threshold=0.5,
    window=3,
)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Scale knobs; defaults keep the full two-engine run under ~30 s."""

    n_rows: int = 480
    n_items: int = 400
    ops_per_phase: int = 800
    chunk: int = 100           # ops per telemetry window
    page_size: int = 256
    data_pool_pages: int = 12  # static misconfig: heap working set ≫ pool
    index_pool_pages: int = 36
    hc_pool_pages: int = 16
    hot_capacity: int = 24
    ops_per_epoch: int = 5_000  # static misconfig: longer than the run
    migration_budget: int = 64
    admission: float = 0.25     # static misconfig: cache fills wasted
    group_commit: int = 1       # static misconfig: no commit batching
    seed: int = 0


@dataclass
class EngineRun:
    """What one engine did across the whole three-phase run."""

    label: str
    windows: int
    #: rule name -> breach-window count across the run.
    breach_windows: dict[str, int]
    final: HealthReport
    actions: list[TuningAction]
    hot_hit_rate: float
    wrong_results: int
    controller: AdaptiveController | None = None


@dataclass
class _Engine:
    db: Database
    table: object
    manager: OnlineHotColdManager
    injector: FaultInjector
    sampler: TelemetrySampler
    checker: HealthChecker
    controller: AdaptiveController | None


def _build(config: AdaptiveConfig, adaptive: bool) -> _Engine:
    metrics = MetricsRegistry()
    injector = FaultInjector(
        seed=config.seed, page_size=config.page_size, registry=metrics
    )
    db = Database(
        page_size=config.page_size,
        data_pool_pages=config.data_pool_pages,
        index_pool_pages=config.index_pool_pages,
        seed=config.seed,
        metrics=metrics,
        fault_injector=injector,
        retry_policy=RetryPolicy(corrupt_rereads=3),
        wal=True,
        wal_group_commit=config.group_commit,
    )
    db.set_cache_admission(config.admission)
    table = db.create_table("t", SCHEMA)
    db.create_cached_index("t", "pk", ("k",), cached_fields=("n",))
    for i in range(config.n_rows):
        table.insert({"k": i, "pad": f"p{i:010d}", "n": i % 97})

    # The hot/cold pair lives on its own (small) pool over a pristine
    # disk — the database's disk is the fault-injected one — but shares
    # the metrics registry and the simulated clock, so its hit/miss
    # counters land in the same telemetry windows the controller judges.
    hc_pool = BufferPool(
        SimulatedDisk(config.page_size),
        config.hc_pool_pages,
        cost_hook=db.cost_model,
        registry=metrics,
    )

    def side(name: str) -> Table:
        heap = HeapFile(hc_pool, append_only=True)
        tree = BPlusTree(hc_pool, key_size=4, value_size=RID_SIZE)
        part = Table(name, HC_SCHEMA, heap)
        part.attach_index(
            f"{name}_pk", PlainIndex(tree, heap, HC_SCHEMA, ("item_id",))
        )
        return part

    hc_table = HotColdPartitionedTable(side("hc_hot"), side("hc_cold"))
    for i in range(config.n_items):
        hc_table.insert({"item_id": i, "body": f"b{i:06d}"}, hot=False)
    manager = OnlineHotColdManager(
        hc_table,
        hot_capacity=config.hot_capacity,
        ops_per_epoch=config.ops_per_epoch,
        migration_budget=config.migration_budget,
        registry=metrics,
    )

    rules = DEFAULT_SLO_RULES + (
        WAL_FLUSH_AMPLIFICATION_RULE,
        HOTCOLD_HIT_RATE_RULE,
    )
    sampler = TelemetrySampler(metrics, clock=db.cost_model, capacity=32)
    checker = HealthChecker(sampler, rules)
    controller = None
    if adaptive:
        knobs = database_knobs(db) + hot_cold_knobs(manager)
        bindings = default_bindings(
            knobs, rules, breach_windows=2, cooldown_windows=1
        ) + [
            KnobBinding(
                "hotcold-hit-rate-floor", "hotcold.ops_per_epoch", "down",
                breach_windows=2, cooldown_windows=1,
            ),
            KnobBinding(
                "hotcold-hit-rate-floor", "hotcold.hot_capacity", "up",
                breach_windows=2, cooldown_windows=1,
            ),
        ]
        controller = db.enable_adaptive(
            rules=rules, knobs=knobs, bindings=bindings, sampler=sampler
        )
    sampler.sample()  # baseline window; rates start with the next sample
    return _Engine(db, table, manager, injector, sampler, checker, controller)


#: (label, zipf alpha, rng child, faults armed).  Each phase's fresh
#: distribution reshuffles rank->id, so B *rotates* the hot set away
#: from A's; C keeps B's rotation (same child) and adds the storm.
_PHASES: tuple[tuple[str, float, int, bool], ...] = (
    ("A steady zipf", 1.4, 1, False),
    ("B hot-set rotation", 0.9, 2, False),
    ("C fault storm", 0.9, 2, True),
)

_STORM = FaultPlan.of(
    FaultSpec(FaultKind.TRANSIENT_READ_ERROR, probability=0.02),
    FaultSpec(FaultKind.READ_BIT_FLIP, probability=0.01),
)


def _run_engine(config: AdaptiveConfig, adaptive: bool) -> EngineRun:
    engine = _build(config, adaptive)
    rng = DeterministicRng(config.seed + 101)
    mirror = {i: i % 97 for i in range(config.n_rows)}
    wrong = 0
    windows = 0
    tally: dict[str, int] = {}

    def close_window() -> None:
        nonlocal windows
        point = engine.sampler.sample()
        windows += 1
        report = engine.checker.evaluate()
        for result in report.breaches:
            tally[result.rule.name] = tally.get(result.rule.name, 0) + 1
        if engine.controller is not None:
            engine.controller.evaluate(point)

    op_serial = 0
    for _label, alpha, child, faults in _PHASES:
        db_dist = ZipfianDistribution(
            config.n_rows, alpha, rng.child(10 + child)
        )
        hc_dist = ZipfianDistribution(
            config.n_items, alpha, rng.child(20 + child)
        )
        if faults:
            engine.injector.arm(_STORM)
        for _ in range(config.ops_per_phase):
            op_serial += 1
            key = db_dist.sample()
            if rng.random() < 0.25:
                value = (key * 7 + op_serial) % 1_000
                applied = engine.db.recovery.call(
                    engine.table.update, "pk", key, {"n": value}
                )
                if applied:
                    mirror[key] = value
                else:
                    wrong += 1
            else:
                result = engine.db.recovery.call(
                    engine.table.lookup, "pk", key, ("k", "n")
                )
                if not result.found or result.values != {
                    "k": key, "n": mirror[key]
                }:
                    wrong += 1
            engine.manager.lookup(hc_dist.sample())
            if op_serial % config.chunk == 0:
                close_window()
        if faults:
            engine.injector.disarm()

    final = engine.checker.evaluate()
    return EngineRun(
        label="adaptive" if adaptive else "static",
        windows=windows,
        breach_windows=tally,
        final=final,
        actions=engine.controller.actions if engine.controller else [],
        hot_hit_rate=engine.manager.hot_hit_rate(),
        wrong_results=wrong,
        controller=engine.controller,
    )


def run(config: AdaptiveConfig = AdaptiveConfig()) -> dict[str, EngineRun]:
    """Both engines over the identical seeded workload; keys static/adaptive."""
    return {
        "static": _run_engine(config, adaptive=False),
        "adaptive": _run_engine(config, adaptive=True),
    }


def main() -> dict[str, EngineRun]:
    from repro.experiments.runner import print_table

    runs = run()
    static, adaptive = runs["static"], runs["adaptive"]
    rule_names = [r.rule.name for r in static.final.results]
    status = {
        label: {r.rule.name: r.status for r in e.final.results}
        for label, e in runs.items()
    }
    print_table(
        ["SLO rule", "static breach windows", "adaptive breach windows",
         "static end", "adaptive end"],
        [
            (
                name,
                f"{static.breach_windows.get(name, 0)}/{static.windows}",
                f"{adaptive.breach_windows.get(name, 0)}/{adaptive.windows}",
                status["static"][name],
                status["adaptive"][name],
            )
            for name in rule_names
        ],
        title="SLO breaches: static misconfiguration vs adaptive control",
    )
    print()
    print_table(
        ["engine", "hot-partition hit rate", "wrong results", "knob moves"],
        [
            (e.label, f"{e.hot_hit_rate:.2f}", e.wrong_results,
             len(e.actions))
            for e in (static, adaptive)
        ],
        title="same answers, different service levels",
    )
    assert adaptive.controller is not None
    print()
    print(adaptive.controller.format_knobs(title="adaptive knobs (end state)"))
    print()
    print(adaptive.controller.format_audit(title="tuning audit trail"))
    held = [
        name for name in rule_names
        if status["static"][name] == "breach"
        and status["adaptive"][name] == "ok"
    ]
    print(
        f"\nadaptive control holds {len(held)} SLO(s) the static "
        f"configuration ends in breach of: {', '.join(held) or '(none)'}"
    )
    return runs


if __name__ == "__main__":
    main()
