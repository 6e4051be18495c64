"""CLI for the WAL crash-restart drill: ``python -m repro.wal``.

A seeded mixed workload runs against a WAL-backed database while power
cuts land at *arbitrary log byte positions*: each cycle arms
:meth:`~repro.wal.log.WalDevice.crash_after` a few bytes past the current
durable tail, keeps operating until a group-commit append tears on it,
then restarts with :func:`repro.wal.replay.recover` and verifies the
survivor against ground truth folded independently from the durable log:
every durable record's effect must be present, nothing else may survive,
and the invariant walker must come back clean.

Exits non-zero unless every restart verified exactly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.errors import SimulatedCrashError
from repro.schema.record import unpack_record_map
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char
from repro.txn.oracle import committed_positional_fold
from repro.util.cli import at_least
from repro.util.rng import DeterministicRng
from repro.wal.record import scan_wal

#: The drill's table: a tiny fixed-width row so small pages churn.
DRILL_SCHEMA = Schema.of(("id", UINT32), ("name", char(12)), ("score", UINT32))
#: Small pages in a small pool, for the live engine and every restart.
DRILL_PAGE_SIZE = 1024
DRILL_POOL_PAGES = 8


@dataclass
class WalDrillReport:
    """What the crash-restart smoke drill did and whether it verified."""

    seed: int
    operations: int
    crashes: int
    torn_tails: int
    checkpoints: int
    records_durable: int
    page_rebuilds: int
    wrong_results: int
    check_ok: bool
    check_problems: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.wrong_results == 0 and self.check_ok

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"wal drill [{verdict}] seed={self.seed}: {self.operations} ops, "
            f"{self.crashes} crash(es), {self.torn_tails} torn tail(s) "
            f"truncated, {self.checkpoints} checkpoint(s), "
            f"{self.records_durable} durable record(s), "
            f"{self.page_rebuilds} page(s) rebuilt from log, "
            f"{self.wrong_results} wrong result(s), "
            f"check={'OK' if self.check_ok else 'FAILED'}"
        )


def _oracle(records) -> dict[int, tuple[str, int]]:
    """Fold durable heap records into ``id -> (name, score)`` truth."""
    oracle: dict[int, tuple[str, int]] = {}
    for payload in committed_positional_fold(records).values():
        row = unpack_record_map(DRILL_SCHEMA, payload)
        oracle[row["id"]] = (row["name"], row["score"])
    return oracle


def run_wal_drill(
    seed: int = 0,
    n_ops: int = 2_000,
    crashes: int = 4,
    group_commit: int = 8,
    checkpoint_every: int = 400,
) -> WalDrillReport:
    """Run the crash-restart smoke drill; deterministic per argument set."""
    from repro.faults.checker import check_database  # late: faults ← wal
    from repro.query.database import Database
    from repro.wal.replay import recover

    rng = DeterministicRng(seed)
    db = Database(
        seed=seed, wal=True, wal_group_commit=group_commit,
        page_size=DRILL_PAGE_SIZE, data_pool_pages=DRILL_POOL_PAGES,
    )
    db.create_table("t", DRILL_SCHEMA)
    db.create_index("t", "by_id", ("id",))
    table = db.table("t")

    live: set[int] = set()  # ids the engine currently acks (pre-crash view)
    next_id = 0
    ops_done = 0
    crashes_done = 0
    torn_tails = 0
    checkpoints = 0
    page_rebuilds = 0
    wrong = 0
    crash_budget = max(1, n_ops // (crashes + 1))

    def one_op() -> None:
        nonlocal next_id, checkpoints, wrong
        draw = rng.random()
        if draw < 0.5 or not live:
            row = {"id": next_id, "name": f"r{next_id}", "score": next_id % 997}
            table.insert(row)
            live.add(next_id)
            next_id += 1
        elif draw < 0.75:
            target = sorted(live)[rng.randrange(len(live))]
            table.update("by_id", target, {"score": rng.randrange(10_000)})
        elif draw < 0.85:
            target = sorted(live)[rng.randrange(len(live))]
            if table.delete("by_id", target):
                live.discard(target)
        else:
            target = rng.randrange(max(1, next_id))
            result = table.lookup("by_id", target)
            if result.found != (target in live):
                wrong += 1
        if checkpoint_every and ops_done % checkpoint_every == checkpoint_every - 1:
            db.checkpoint()
            checkpoints += 1

    while ops_done < n_ops:
        if crashes_done < crashes and ops_done >= crash_budget * (crashes_done + 1):
            # Arm a power cut a few bytes past the durable tail: the next
            # group-commit append that crosses it keeps only a torn
            # prefix, which recovery must detect by CRC and truncate.
            db.wal.device.crash_after(db.wal.device.size + rng.randint(1, 300))
        try:
            one_op()
            ops_done += 1
        except SimulatedCrashError:
            crashes_done += 1
            db, report = recover(
                db.wal, disk=db.disk,
                page_size=DRILL_PAGE_SIZE, data_pool_pages=DRILL_POOL_PAGES,
                seed=seed,
                group_commit_records=group_commit,
            )
            table = db.table("t")
            torn_tails += int(report.torn_tail)
            page_rebuilds += report.page_rebuilds
            oracle = _oracle(scan_wal(db.wal.device.data).records)
            got = {
                r["id"]: (r["name"], r["score"]) for r in table.scan()
            }
            wrong += sum(
                1 for k in set(oracle) | set(got) if oracle.get(k) != got.get(k)
            )
            for k in sorted(oracle):
                result = table.lookup("by_id", k)
                if not result.found:
                    wrong += 1
            check = check_database(db)
            if not check.ok:
                wrong += len(check.problems)
            live.clear()
            live.update(oracle)

    db.wal.flush()
    durable = scan_wal(db.wal.device.data).records
    final_oracle = _oracle(durable)
    got = {r["id"]: (r["name"], r["score"]) for r in table.scan()}
    wrong += sum(
        1 for k in set(final_oracle) | set(got)
        if final_oracle.get(k) != got.get(k)
    )
    check = check_database(db)
    return WalDrillReport(
        seed=seed,
        operations=ops_done,
        crashes=crashes_done,
        torn_tails=torn_tails,
        checkpoints=checkpoints,
        records_durable=len(durable),
        page_rebuilds=page_rebuilds,
        wrong_results=wrong,
        check_ok=check.ok,
        check_problems=list(check.problems),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.wal",
        description=(
            "Run a seeded workload through power cuts at arbitrary WAL "
            "byte positions and verify crash recovery after each restart."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="drill seed")
    parser.add_argument(
        "--ops", type=at_least(0), default=2_000,
        help="mixed operations to run",
    )
    parser.add_argument(
        "--crashes", type=at_least(0), default=4, help="power cuts to schedule"
    )
    parser.add_argument(
        "--group-commit", type=at_least(1), default=8,
        help="records per group-commit batch",
    )
    parser.add_argument(
        "--checkpoint-every", type=at_least(0), default=400,
        help="ops between fuzzy checkpoints (0 = never)",
    )
    args = parser.parse_args(argv)

    report = run_wal_drill(
        seed=args.seed,
        n_ops=args.ops,
        crashes=args.crashes,
        group_commit=args.group_commit,
        checkpoint_every=args.checkpoint_every,
    )
    print(report.summary())
    for problem in report.check_problems:
        print(f"  check: {problem}", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
