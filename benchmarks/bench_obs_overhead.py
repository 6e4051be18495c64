"""Observability overhead: the NullRegistry must be (near-)free.

The engine ships with instrumentation compiled into every hot path, so
the off-switch has to be cheap: when a component resolves to
:class:`~repro.obs.NullRegistry`, every ``inc``/``record`` collapses to
a no-op method on a shared inert instrument.

Measured claim: across a 10k-lookup workload, the time spent in those
no-op instrument calls is under 5% of the workload's total runtime.
We measure it directly — run the loop under the NullRegistry, count how
many instrument events the same seeded workload emits into a real
registry, then time that many no-op calls in isolation.

The v2 telemetry pipeline (profiler + sampler) extends the claim in two
directions:

* **disabled tax** — profiling and tracing are opt-in, so the
  per-operation cost of their *off* state (one ``Tracer.span`` bracket
  with no sink armed) must also stay under 5% of the NullRegistry
  workload, measured in isolation the same way; and
* **enabled determinism** — the full pipeline's event counts on the
  seeded replay workload are pinned against the committed baseline
  (``benchmarks/baselines/obs_overhead.json``), so a telemetry
  regression (extra pins, inflated WAL attribution, runaway
  fingerprints) fails machine-independently even where wall clocks
  would hide it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.query.database import Database
from repro.schema import UINT32, UINT64, Schema, char
from repro.util.rng import DeterministicRng

pytestmark = pytest.mark.obs

N_ROWS = 1_000
N_LOOKUPS = 10_000

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "obs_overhead.json"

#: Allowed growth of the deterministic telemetry counters vs baseline.
REGRESSION_TOLERANCE = 0.10


def _run_workload(metrics):
    db = Database(data_pool_pages=128, seed=5, metrics=metrics)
    schema = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))
    t = db.create_table("t", schema)
    db.create_index("t", "pk", ("k",))
    db.create_cached_index("t", "by_name", ("name",), cached_fields=("n",))
    for i in range(N_ROWS):
        t.insert({"k": i, "name": f"row{i:08d}", "n": i % 13})
    rng = DeterministicRng(5)
    for _ in range(N_LOOKUPS):
        t.lookup("by_name", f"row{rng.randrange(N_ROWS):08d}", ("name", "n"))
    return db


def _instrument_event_count(registry):
    """Total inc/record/set events the workload emitted."""
    total = 0
    for _name, instrument in registry.items():
        if hasattr(instrument, "count"):       # histogram
            total += instrument.count
        elif hasattr(instrument, "value"):     # counter or gauge
            total += int(instrument.value) if instrument.value >= 1 else 1
    return total


def bench_null_registry_overhead_under_5_percent(run_check):
    def body():
        # 1. Wall-clock the workload with observability switched off.
        start = time.perf_counter()
        _run_workload(NULL_REGISTRY)
        loop_s = time.perf_counter() - start

        # 2. Count how many instrument events that workload emits.
        observed = _run_workload(MetricsRegistry())
        events = _instrument_event_count(observed.metrics)
        assert events > N_LOOKUPS  # instrumentation really is on the hot path

        # 3. Time the same number of no-op calls in isolation (best of 3
        #    to shrug off scheduler noise).
        counter = NULL_REGISTRY.counter("bench.noop")
        noop_s = min(
            _time_noop_calls(counter, events) for _ in range(3)
        )

        overhead = noop_s / loop_s
        print(
            f"null-registry overhead: {events} events, "
            f"{noop_s * 1e3:.2f} ms of no-ops vs {loop_s * 1e3:.1f} ms "
            f"workload ({overhead:.2%})"
        )
        assert overhead < 0.05

    run_check(body)


def _time_noop_calls(counter, n):
    inc = counter.inc
    start = time.perf_counter()
    for _ in range(n):
        inc()
    return time.perf_counter() - start


def bench_observed_and_silent_runs_agree(run_check):
    def body():
        observed = _run_workload(MetricsRegistry())
        silent = _run_workload(NULL_REGISTRY)
        idx_a = observed.table("t").index("by_name")
        idx_b = silent.table("t").index("by_name")
        assert idx_a.stats == idx_b.stats
        assert silent.metrics.snapshot() == {}

    run_check(body)


def bench_disabled_telemetry_tax_under_5_percent(run_check):
    """Profiler/tracing *off* must cost <5% of the NullRegistry workload.

    The bracket stays compiled into every Table operation; this times
    the per-operation off-state work — one ``tracer.span(...)`` carrying
    the profile and trace arguments with neither sink armed — once per
    workload operation, in isolation.
    """

    def body():
        start = time.perf_counter()
        db = _run_workload(NULL_REGISTRY)
        loop_s = time.perf_counter() - start

        tracer = db.tracer
        assert tracer.profiler is None  # opt-in: never armed here
        assert tracer.trace is None

        events = N_ROWS + N_LOOKUPS  # one hook crossing per operation
        off_s = min(
            _time_disabled_hooks(tracer, events) for _ in range(3)
        )

        tax = off_s / loop_s
        print(
            f"disabled-telemetry tax: {events} hook crossings, "
            f"{off_s * 1e3:.2f} ms vs {loop_s * 1e3:.1f} ms workload "
            f"({tax:.2%})"
        )
        assert tax < 0.05

    run_check(body)


def _time_disabled_hooks(tracer, n):
    span = tracer.span
    project = ("name", "n")
    start = time.perf_counter()
    for _ in range(n):
        with span(
            "query.lookup", timed=False,
            profile=("lookup", "t", "by_name", None, project),
            trace={"table": "t"},
        ):
            pass
    return time.perf_counter() - start


def bench_enabled_telemetry_matches_baseline(run_check):
    """The full pipeline's deterministic counts stay pinned to baseline.

    Machine-independent gate in the ``bench_wal_overhead`` style: the
    seeded CLI replay workload must profile the same operations, charge
    the same pins and WAL bytes, and take the same samples as the
    committed ``baselines/obs_overhead.json`` (+10% ceiling on the
    cost-like counters; exact on the workload-shaped ones).
    """

    def body():
        from repro.obs.__main__ import run_observed_workload

        # the baseline was recorded with a 48-page pool, which never
        # evicts after the load
        run = run_observed_workload(pool_pages=48)
        top = run.profiler.top()
        point = {
            "profiled_ops": run.profiler.operations,
            "fingerprints": len(top),
            "pages_pinned": sum(s.pages_pinned for s in top),
            "pages_read": sum(s.pages_read for s in top),
            "wal_bytes": sum(s.wal_bytes for s in top),
            "samples_taken": run.sampler.samples_taken,
            "instrument_events": _instrument_event_count(run.registry),
        }
        baseline = json.loads(BASELINE_PATH.read_text())
        print(
            "enabled-telemetry point: "
            + ", ".join(f"{k}={v}" for k, v in point.items())
        )

        # Workload-shaped counts are fully determined by the seed.
        for metric in ("profiled_ops", "samples_taken"):
            assert point[metric] == baseline[metric], (
                f"{metric} drifted: {point[metric]} != {baseline[metric]}"
            )
        # Cost-like counts may only grow within tolerance.
        for metric in (
            "fingerprints", "pages_pinned", "pages_read", "wal_bytes",
            "instrument_events",
        ):
            ceiling = baseline[metric] * (1.0 + REGRESSION_TOLERANCE)
            assert point[metric] <= ceiling, (
                f"{metric} regressed: {point[metric]} > {baseline[metric]} "
                f"(+{REGRESSION_TOLERANCE:.0%} tolerance)"
            )
        assert run.health.ok == baseline["health_ok"]

    run_check(body)
