"""Observability CLI: profile, sample, and health-check a live workload.

Usage::

    python -m repro.obs report            # metrics dashboard + SLO verdicts
    python -m repro.obs top               # EXPLAIN-ANALYZE rollup + slow log
    python -m repro.obs timeline          # ASCII sparklines of sampled series
    python -m repro.obs export            # one JSON document with everything
    python -m repro.obs health            # SLO verdicts + tuning audit ring
    python -m repro.obs tune              # adaptive knobs, audit, verdicts
    python -m repro.obs trace             # §5j span trees (+ Chrome export)
    python -m repro.obs events            # §5j causal event journal
    python -m repro.obs fleet --shards 4  # §5j fleet rollup + skew report
    python -m repro.obs top --ops 20000 --batch 16 --no-wal
    python -m repro.obs report --shards 4 # any subcommand, sharded

Every subcommand accepts ``--shards N``: the same workload then runs
over a :class:`~repro.shard.ShardedDatabase` (zipf router, per-shard
WALs and registries) with §5j tracing, the event journal, and the fleet
rollup armed; the sampler reads the facade registry, where the rollup
keeps the ``fleet.*`` aggregates, so the SLO rules and the default
timeline series are the single-engine ones rewritten by
:func:`~repro.obs.rollup.fleet_selector`.

Every subcommand drives the same seeded workload: a table with a plain
primary index and a §2.1 cached index, loaded and then replayed with a
Zipf-skewed lookup/update/insert/delete trace
(:func:`repro.workload.replay.build_mixed_trace`), with the
:class:`~repro.obs.sampler.TelemetrySampler` snapshotting the registry
between replay chunks on the simulated clock.  Deterministic by
construction — same seed, same numbers, safe to diff in CI.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.obs.health import DEFAULT_SLO_RULES, HealthChecker, HealthReport
from repro.obs.profiler import QueryProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.report import export_json, format_report
from repro.obs.rollup import fleet_selector
from repro.obs.sampler import TelemetrySampler, select
from repro.util.cli import at_least

#: Series the ``timeline`` subcommand shows by default, in order, when
#: they resolved in at least one sample.
DEFAULT_TIMELINE_SELECTORS = (
    "derived.bufferpool.hit_rate",
    "derived.index_cache.hit_rate",
    "rate.profiler.ops",
    "rate.wal.bytes",
    "rate.bufferpool.eviction",
    "gauge.bufferpool.quarantined_pages",
    "p95.bufferpool.page_temperature",
)

#: Sparkline glyphs, low to high (ASCII-only for dumb terminals).
_SPARK_LEVELS = " .:-=+*#%@"


@dataclass
class ObservedRun:
    """Everything a subcommand needs from one observed workload."""

    registry: MetricsRegistry
    profiler: QueryProfiler
    sampler: TelemetrySampler
    health: HealthReport
    database: object
    replayed_ops: int
    elapsed_ns: float
    #: The AdaptiveController when ``adaptive=True``, else None.
    controller: object | None = None
    #: §5j instruments, armed when ``observe=True`` or ``shards > 0``.
    trace: object | None = None
    journal: object | None = None
    #: The FleetRollup (sharded runs only).
    rollup: object | None = None
    #: Shards the workload ran over (0 = single engine).
    shards: int = 0


def run_observed_workload(
    n_rows: int = 400,
    n_ops: int = 4_000,
    seed: int = 0,
    pool_pages: int = 6,
    batch: int = 8,
    samples: int = 24,
    alpha: float = 1.1,
    wal: bool = True,
    adaptive: bool = False,
    shards: int = 0,
    observe: bool = False,
) -> ObservedRun:
    """Load, replay, profile, sample, and health-check one workload.

    The replay trace is chunked into ``samples`` slices (the last takes
    the remainder) with one sampler snapshot after each, so the timeline
    has exactly that many windows after a baseline sample (one per
    operation when the trace is shorter).

    With ``adaptive=True`` an :class:`~repro.obs.adaptive.AdaptiveController`
    is attached over the *same* sampler and fed each chunk's point, so
    the control loop runs chunk-synchronously and the sample count stays
    identical to a non-adaptive run.

    With ``observe=True`` the §5j trace collector and event journal are
    armed (they always are when ``shards > 0``).  ``shards=N`` runs the
    replay over a :class:`~repro.shard.ShardedDatabase`: the cached
    index doubles as the routing index, the sampler reads the facade
    registry's ``fleet.*`` family, the rollup refreshes once per chunk,
    and the SLO rule set gains the fleet skew rule.  ``adaptive`` is
    single-engine only (the controller tunes one engine's knobs) and is
    ignored sharded.
    """
    # Late imports: repro.obs stays importable from the lowest layers;
    # only the CLI pulls in the query and workload packages.
    from repro.query.database import Database
    from repro.schema.schema import Schema
    from repro.schema.types import UINT32, UINT64, char
    from repro.workload.replay import build_mixed_trace, replay

    registry = MetricsRegistry()
    rollup = None
    if shards:
        from repro.obs.rollup import FLEET_SLO_RULES, fleet_rules
        from repro.shard.database import ShardedDatabase

        # Split the RAM budget like the sharded fault drill does, so
        # scaling out does not quietly multiply the cache.
        per_shard_pool = max(4, -(-pool_pages // shards))
        db = ShardedDatabase(
            shards, mode="zipf", seed=seed, metrics=registry,
            data_pool_pages=per_shard_pool, wal=wal,
        )
        trace_collector = db.enable_tracing()
        journal = db.enable_events()
        rollup = db.enable_rollup()
    else:
        db = Database(
            seed=seed, metrics=registry, data_pool_pages=pool_pages, wal=wal,
        )
        trace_collector = db.enable_tracing() if observe else None
        journal = db.enable_events() if observe else None

    def make_row(k: int) -> dict:
        return {"k": k, "name": f"r{k}", "n": k % 97}

    schema = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))
    table = db.create_table("t", schema)
    if not shards:
        db.create_index("t", "pk", ("k",))
    # Sharded, the cached index is the first one, so it is the routing
    # index: point ops touch one shard, scans and aggregates scatter.
    db.create_cached_index("t", "pk_cache", ("k",), ("name", "n"))
    for k in range(n_rows):
        table.insert(make_row(k))

    if shards:
        shard_profilers = [
            db.shard(i).enable_profiling(slow_log_size=64)
            for i in range(shards)
        ]
        sampler = TelemetrySampler(
            registry, clock=lambda: db.sim_now_ns, capacity=max(samples + 1, 16)
        )
        checker = HealthChecker(
            sampler, fleet_rules(DEFAULT_SLO_RULES) + tuple(FLEET_SLO_RULES),
            journal=journal,
        )
        controller = None
    else:
        profiler = db.enable_profiling(slow_log_size=64)
        sampler = TelemetrySampler(
            registry, clock=db.cost_model, capacity=max(samples + 1, 16),
        )
        checker = HealthChecker(sampler, DEFAULT_SLO_RULES, journal=journal)
        controller = db.enable_adaptive(sampler=sampler) if adaptive else None

    trace = build_mixed_trace(
        n_ops,
        existing_keys=list(range(n_rows)),
        make_row=make_row,
        make_changes=lambda k: {"n": (k * 31) % 1_000},
        next_key=lambda i: n_rows + i,
        alpha=alpha,
        seed=seed,
    )
    clock_now = (
        (lambda: db.sim_now_ns) if shards else (lambda: db.cost_model.now_ns)
    )
    start_ns = clock_now()
    sampler.sample()  # baseline: gauges only, no window yet
    # The last chunk takes the remainder: no short tail window after it.
    chunk = max(1, len(trace) // max(1, samples))
    bounds = list(range(0, len(trace), chunk))[:max(1, samples)] + [len(trace)]
    mid_chunk = max(1, (len(bounds) - 1) // 2)
    replayed = 0
    chunks_done = 0
    for lo, hi in zip(bounds, bounds[1:]):
        result = replay(
            table, "pk_cache", trace[lo:hi],
            project=("k", "name"), lookup_batch_size=batch,
        )
        replayed += result.operations
        chunks_done += 1
        if journal is not None and chunks_done == mid_chunk:
            # Give the journal a real mid-run story: a fuzzy checkpoint
            # (per shard when sharded) and, sharded, one hot-key
            # rebalance whose migration intents/commits land as events.
            if wal:
                db.checkpoint()
            if shards:
                db.rebalance()
        if rollup is not None:
            rollup.refresh()
        point = sampler.sample()
        if controller is not None:
            controller.evaluate(point)
        elif journal is not None:
            # SLO transitions journal themselves as they happen, not
            # only at the end-of-run verdict.
            checker.evaluate()
    if wal:
        if shards:
            db.flush_wals()
        else:
            db.wal.flush()
    if rollup is not None:
        # after the final flush: merged histograms and counters, one instant
        rollup.refresh()
    return ObservedRun(
        registry=registry,
        profiler=QueryProfiler.fold(shard_profilers) if shards else profiler,
        sampler=sampler,
        health=checker.evaluate(),
        database=db,
        replayed_ops=replayed,
        elapsed_ns=clock_now() - start_ns,
        controller=controller,
        trace=trace_collector,
        journal=journal,
        rollup=rollup,
        shards=shards,
    )


# -- rendering -------------------------------------------------------------


def sparkline(values: list[float], width: int = 60) -> str:
    """Render a series as one line of ASCII levels, min-max normalized."""
    if not values:
        return "(no data)"
    if len(values) > width:
        # Down-sample by striding; the newest point always survives.
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width - 1)] + [values[-1]]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[len(_SPARK_LEVELS) // 2] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[round((v - lo) / span * top)] for v in values
    )


def format_timeline(
    sampler: TelemetrySampler,
    selectors: tuple[str, ...] | list[str] = DEFAULT_TIMELINE_SELECTORS,
    width: int = 60,
) -> str:
    """Sparklines for every selector that resolves in the retained points."""
    lines = []
    for selector in selectors:
        series = sampler.series(selector)
        if not series:
            continue
        values = [v for _t, v in series]
        lines.append(
            f"{selector:<40} last={values[-1]:>12.4g}  "
            f"[{min(values):.4g} .. {max(values):.4g}]"
        )
        lines.append(f"  {sparkline(values, width)}")
    if not lines:
        return "timeline: (no sampled series resolved)"
    header = (
        f"timeline: {len(sampler)} retained point(s), "
        f"{sampler.samples_taken} sample(s) taken"
    )
    return "\n".join([header] + lines)


# -- subcommands -----------------------------------------------------------


def _cmd_report(run: ObservedRun, args: argparse.Namespace) -> None:
    print(format_report(run.registry, title="observed workload"))
    print()
    print(run.health.format())


def _cmd_top(run: ObservedRun, args: argparse.Namespace) -> None:
    print(run.profiler.format_top(args.n))
    slow = run.profiler.slow_queries(args.n)
    if slow:
        print("\nslow queries (costliest retained):")
        for profile in slow:
            print(f"  {profile.line()}")


def _cmd_timeline(run: ObservedRun, args: argparse.Namespace) -> None:
    if args.selector:
        selectors = tuple(args.selector)
    elif run.shards:
        selectors = tuple(map(fleet_selector, DEFAULT_TIMELINE_SELECTORS))
    else:
        selectors = DEFAULT_TIMELINE_SELECTORS
    # Fail fast on a selector typo instead of silently skipping it.
    last = run.sampler.last()
    if args.selector and last is not None:
        for sel in selectors:
            select(last, sel)
    print(format_timeline(run.sampler, selectors, width=args.width))


def _cmd_health(run: ObservedRun, args: argparse.Namespace) -> None:
    print(run.health.format())
    if run.controller is not None:
        print()
        print(run.controller.format_audit(limit=args.actions))


def _cmd_tune(run: ObservedRun, args: argparse.Namespace) -> None:
    controller = run.controller
    print(controller.format_knobs())
    print()
    print(controller.format_audit(limit=args.actions))
    print()
    print(run.health.format())


def _cmd_trace(run: ObservedRun, args: argparse.Namespace) -> None:
    collector = run.trace
    trees = collector.traces(args.n)
    print(
        f"traces: showing {len(trees)} of {len(collector.traces())} "
        f"retained span tree(s)"
    )
    for tree in trees:
        print(tree.format())
    if args.chrome:
        import json

        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(collector.to_chrome(), fh, indent=2, sort_keys=True)
        print(f"wrote Chrome trace_event JSON to {args.chrome} "
              f"(load in about:tracing / Perfetto)")


def _cmd_events(run: ObservedRun, args: argparse.Namespace) -> None:
    print(run.journal.format(
        limit=args.n, kind=args.kind, shard=args.shard,
    ))


def _cmd_fleet(run: ObservedRun, args: argparse.Namespace) -> None:
    run.rollup.refresh()
    print(run.rollup.format(args.n))
    print()
    print(run.health.format())


def _cmd_export(run: ObservedRun, args: argparse.Namespace) -> None:
    text = export_json(
        run.registry,
        path=args.out,
        label="repro.obs",
        extra={
            "profiler": run.profiler.as_dict(),
            "timeline": run.sampler.as_dict(),
            "health": run.health.as_dict(),
            "workload": {
                "replayed_ops": run.replayed_ops,
                "elapsed_ns": run.elapsed_ns,
                "shards": run.shards,
            },
            "traces": run.trace.as_dicts(args.spans),
            "events": run.journal.as_dicts(),
        },
    )
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rows", type=at_least(1), default=400,
                        help="rows loaded before the replay (default 400)")
    common.add_argument("--ops", type=at_least(0), default=4_000,
                        help="replayed trace length (default 4000)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--pool-pages", type=at_least(2), default=6,
                        help="buffer-pool capacity in pages (default 6)")
    common.add_argument("--batch", type=at_least(1), default=8,
                        help="lookup_many batch size (default 8)")
    common.add_argument("--samples", type=at_least(1), default=24,
                        help="telemetry samples across the replay (default 24)")
    common.add_argument("--alpha", type=float, default=1.1,
                        help="Zipf skew of the trace (default 1.1)")
    common.add_argument("--no-wal", action="store_true",
                        help="run without a write-ahead log")
    common.add_argument("--adaptive", action="store_true",
                        help="attach the AdaptiveController to the run "
                        "(always on for the health/tune subcommands; "
                        "single-engine only)")
    common.add_argument("--shards", type=at_least(0), default=0, metavar="N",
                        help="run the workload over a ShardedDatabase with "
                        "N shards (0 = single engine; arms §5j tracing, "
                        "the event journal, and the fleet rollup)")

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Profile, sample, and health-check a replayed workload.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", parents=[common],
        help="per-subsystem metrics dashboard plus SLO verdicts",
    )
    p_report.set_defaults(func=_cmd_report)

    p_top = sub.add_parser(
        "top", parents=[common],
        help="per-fingerprint EXPLAIN-ANALYZE rollup and the slow-query log",
    )
    p_top.add_argument("-n", type=at_least(0), default=10,
                       help="fingerprints / slow queries shown (default 10)")
    p_top.set_defaults(func=_cmd_top)

    p_timeline = sub.add_parser(
        "timeline", parents=[common],
        help="ASCII sparklines of sampled time series",
    )
    p_timeline.add_argument(
        "--selector", action="append", metavar="SEL",
        help="series selector (repeatable), e.g. derived.bufferpool.hit_rate",
    )
    p_timeline.add_argument("--width", type=at_least(1), default=60)
    p_timeline.set_defaults(func=_cmd_timeline)

    p_export = sub.add_parser(
        "export", parents=[common],
        help="metrics + traces + events + profiles + timeline + health "
        "as one JSON",
    )
    p_export.add_argument("--out", metavar="PATH",
                          help="write to PATH instead of stdout")
    p_export.add_argument("--spans", type=at_least(0), default=64,
                          help="newest traces included (default 64)")
    p_export.set_defaults(func=_cmd_export, force_observe=True)

    p_health = sub.add_parser(
        "health", parents=[common],
        help="SLO rule verdicts plus the controller's tuning audit ring",
    )
    p_health.add_argument("--actions", type=at_least(0), default=16,
                          help="newest tuning actions shown (default 16)")
    p_health.set_defaults(func=_cmd_health, force_adaptive=True)

    p_tune = sub.add_parser(
        "tune", parents=[common],
        help="adaptive knob state, tuning audit ring, and SLO verdicts",
    )
    p_tune.add_argument("--actions", type=at_least(0), default=16,
                        help="newest tuning actions shown (default 16)")
    p_tune.set_defaults(func=_cmd_tune, force_adaptive=True)

    p_trace = sub.add_parser(
        "trace", parents=[common],
        help="§5j span trees of the replayed workload (+ Chrome export)",
    )
    p_trace.add_argument("-n", type=at_least(0), default=4,
                         help="newest span trees shown (default 4)")
    p_trace.add_argument("--chrome", metavar="PATH",
                         help="also write Chrome trace_event JSON to PATH")
    p_trace.set_defaults(func=_cmd_trace, force_observe=True)

    p_events = sub.add_parser(
        "events", parents=[common],
        help="§5j causal event journal (checkpoints, tuning, SLO, faults)",
    )
    p_events.add_argument("-n", type=at_least(0), default=20,
                          help="newest events shown (default 20)")
    p_events.add_argument("--kind", metavar="GLOB",
                          help="filter by kind, fnmatch glob ok "
                          "(e.g. migration.*)")
    p_events.add_argument("--shard", type=at_least(0), default=None,
                          help="filter by shard id")
    p_events.set_defaults(func=_cmd_events, force_observe=True)

    p_fleet = sub.add_parser(
        "fleet", parents=[common],
        help="§5j fleet rollup: cross-shard totals, skew, hot shard "
        "(defaults to --shards 2 when unset)",
    )
    p_fleet.add_argument("-n", type=at_least(0), default=8,
                         help="most-skewed metrics shown (default 8)")
    p_fleet.set_defaults(func=_cmd_fleet, default_shards=2)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    shards = args.shards or getattr(args, "default_shards", 0)
    adaptive = args.adaptive or getattr(args, "force_adaptive", False)
    if shards and adaptive and not args.adaptive and args.command == "health":
        adaptive = False  # health works sharded, just without the controller
    if shards and adaptive:
        print("error: --shards is incompatible with the adaptive "
              "controller (health works sharded; tune is single-engine)",
              file=sys.stderr)
        return 2
    run = run_observed_workload(
        n_rows=args.rows,
        n_ops=args.ops,
        seed=args.seed,
        pool_pages=args.pool_pages,
        batch=args.batch,
        samples=args.samples,
        alpha=args.alpha,
        wal=not args.no_wal,
        adaptive=adaptive,
        shards=shards,
        observe=getattr(args, "force_observe", False),
    )
    args.func(run, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
