"""Durability tax, measured: what the redo log costs per operation.

The WAL's price has two deterministic components: bytes appended per
logical operation (frame header + LSN + record body) and device flushes
per operation (amortized by group commit).  This driver runs the same
seeded mixed workload at several group-commit batch sizes and reports
records, bytes, and flushes — all operation counts, never wall time, so
they are safe to gate in CI.  The wall-clock counterpart is
``wal.self_us_per_op``@``oltp_wal`` under ``python3 -m bench --compare``.

The last column reports the crash-restart smoke drill at the same batch
size: every configuration must come back with zero wrong results, so the
batching knob trades flushes for lost-on-crash window, never
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import MetricsRegistry
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.util.rng import DeterministicRng

SCHEMA = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))

GROUP_COMMIT_SIZES = (1, 4, 8, 32)


@dataclass(frozen=True)
class WalCostRow:
    """Deterministic log counters for one group-commit batch size."""

    group_commit: int
    n_ops: int
    records: int
    bytes: int
    flushes: int
    checkpoints: int
    drill_crashes: int
    drill_wrong: int

    @property
    def bytes_per_record(self) -> float:
        return self.bytes / max(1, self.records)

    @property
    def records_per_flush(self) -> float:
        return self.records / max(1, self.flushes)


def _run_one(group_commit: int, n_ops: int, seed: int) -> WalCostRow:
    metrics = MetricsRegistry()
    db = Database(
        seed=seed, wal=True, wal_group_commit=group_commit,
        data_pool_pages=32, metrics=metrics,
    )
    t = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("k",))
    rng = DeterministicRng(seed)
    live: list[int] = []
    next_k = 0
    for op_i in range(n_ops):
        draw = rng.random()
        if draw < 0.55 or not live:
            t.insert({"k": next_k, "name": f"r{next_k}", "n": next_k % 97})
            live.append(next_k)
            next_k += 1
        elif draw < 0.8:
            t.update("pk", live[rng.randrange(len(live))],
                     {"n": rng.randrange(1_000)})
        else:
            t.delete("pk", live.pop(rng.randrange(len(live))))
        if op_i % 500 == 499:
            db.checkpoint()
    db.wal.flush()
    wal_stats = metrics.snapshot()["wal"]

    from repro.wal.__main__ import run_wal_drill  # late: heavier deps

    drill = run_wal_drill(
        seed=seed, n_ops=400, crashes=2, group_commit=group_commit,
        checkpoint_every=150,
    )
    return WalCostRow(
        group_commit=group_commit,
        n_ops=n_ops,
        records=wal_stats["records"],
        bytes=wal_stats["bytes"],
        flushes=wal_stats["flushes"],
        checkpoints=wal_stats["checkpoints"],
        drill_crashes=drill.crashes,
        drill_wrong=drill.wrong_results,
    )


def run(n_ops: int = 2_000, seed: int = 0) -> list[WalCostRow]:
    return [_run_one(gc, n_ops, seed) for gc in GROUP_COMMIT_SIZES]


def main() -> list[WalCostRow]:
    from repro.experiments.runner import print_table

    rows = run()
    print_table(
        ["group commit", "records", "bytes/record", "flushes",
         "records/flush", "drill"],
        [
            (
                row.group_commit,
                row.records,
                f"{row.bytes_per_record:.1f}",
                row.flushes,
                f"{row.records_per_flush:.1f}",
                f"{row.drill_crashes} crashes, {row.drill_wrong} wrong",
            )
            for row in rows
        ],
        title="WAL durability tax vs group-commit batch size",
    )
    assert all(row.drill_wrong == 0 for row in rows)
    # Batching must amortize: flushes strictly decrease as batches grow.
    flushes = [row.flushes for row in rows]
    assert flushes == sorted(flushes, reverse=True)
    return rows


if __name__ == "__main__":
    main()
