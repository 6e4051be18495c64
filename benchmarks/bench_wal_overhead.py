"""WAL overhead: what durability costs with group commit.

The redo log taxes every mutation with one frame encode + CRC and, each
``group_commit`` records, one device append.  On the headline mixed
workload (inserts, non-key updates, deletes, index lookups) both runs
must return identical query results — the log observes mutations, it
never changes them.

The gate is machine-independent: it pins the deterministic log counters
(records, appended bytes, device flushes) against the committed baseline
(``benchmarks/baselines/wal_overhead.json``); a +10% drift in bytes or
flushes per workload is a regression in the framing or group-commit
batching even when the machine is fast enough to hide it.

Wall time is printed, not asserted: best-of-``ROUNDS`` WAL-off and
WAL-on times and the absolute cost per log record.  The old gate,
``(on - off) / off < 10%``, read -13% to +16% across six runs of
identical work and failed whenever the *rest* of the engine got faster
(the denominator shrinks, the cost per record does not).  Its wall
successor is ``wal.self_us_per_op``@``oltp_wal`` under
``python3 -m bench --compare`` (bench/README.md, "Legacy numbers and
their successors").
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.query.database import Database
from repro.schema import UINT32, UINT64, Schema, char
from repro.util.rng import DeterministicRng

pytestmark = pytest.mark.faults

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "wal_overhead.json"

N_OPS = 6_000
GROUP_COMMIT = 8
CHECKPOINT_EVERY = 1_500
POOL_PAGES = 64
ROUNDS = 5

#: Allowed drift of the deterministic log counters vs the baseline.
REGRESSION_TOLERANCE = 0.10


def _run_workload(wal: bool):
    """One seeded mixed workload; returns ``(db, sorted scan results)``."""
    db = Database(
        seed=11,
        wal=wal,
        wal_group_commit=GROUP_COMMIT,
        data_pool_pages=POOL_PAGES,
        metrics=MetricsRegistry(),
    )
    schema = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))
    t = db.create_table("t", schema)
    db.create_index("t", "pk", ("k",))
    rng = DeterministicRng(11)
    live: list[int] = []
    next_k = 0
    for op_i in range(N_OPS):
        draw = rng.random()
        if draw < 0.5 or not live:
            t.insert({"k": next_k, "name": f"row{next_k:08d}", "n": next_k % 13})
            live.append(next_k)
            next_k += 1
        elif draw < 0.75:
            t.update("pk", live[rng.randrange(len(live))],
                     {"n": rng.randrange(1_000)})
        elif draw < 0.85:
            t.delete("pk", live.pop(rng.randrange(len(live))))
        else:
            t.lookup("pk", live[rng.randrange(len(live))], ("k", "n"))
        if wal and op_i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            db.checkpoint()
    if wal:
        db.wal.flush()
    rows = sorted((r["k"], r["name"], r["n"]) for r in t.scan())
    return db, rows


def _best_of(wal: bool, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _run_workload(wal=wal)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def walled():
    return _run_workload(wal=True)


def bench_wal_counters_match_baseline(walled, run_check):
    """Acceptance: log records, bytes and flushes stay at the baseline."""

    def body():
        off_s = _best_of(wal=False)
        on_s = _best_of(wal=True)

        db, _ = walled
        wal_stats = db.metrics.snapshot()["wal"]
        point = {
            "wal_records": wal_stats["records"],
            "wal_bytes": wal_stats["bytes"],
            "wal_flushes": wal_stats["flushes"],
        }
        per_record_us = (on_s - off_s) / point["wal_records"] * 1e6
        print(
            f"wal overhead: {off_s * 1e3:.1f} ms off vs {on_s * 1e3:.1f} ms "
            f"on ({per_record_us:+.2f} us per record, not gated); "
            f"{point['wal_records']} records, {point['wal_flushes']} flushes "
            f"(group commit {GROUP_COMMIT})"
        )

        baseline = json.loads(BASELINE_PATH.read_text())
        for metric in ("wal_records", "wal_bytes", "wal_flushes"):
            ceiling = baseline[metric] * (1.0 + REGRESSION_TOLERANCE)
            assert point[metric] <= ceiling, (
                f"{metric} regressed: {point[metric]} > {baseline[metric]} "
                f"(+{REGRESSION_TOLERANCE:.0%} tolerance)"
            )
        # Group commit must actually batch: appends ≪ records.
        assert point["wal_flushes"] * 2 <= point["wal_records"]

    run_check(body)


def bench_wal_on_and_off_runs_agree(walled, run_check):
    """The log observes mutations; results are bit-identical without it."""

    def body():
        _, with_wal = walled
        _, without = _run_workload(wal=False)
        assert with_wal == without

    run_check(body)
