"""CLI for the fault drill: ``python -m repro.faults``.

Runs :func:`repro.faults.harness.run_fault_drill` with the given seed and
sizes, prints the report summary plus any invariant-checker findings, and
exits non-zero unless the drill passed (zero wrong results, database
check OK, and the fault ledger balanced) **and** every detected fault was
recovered — an unrecoverable fault fails the gate even when quarantine
kept query results correct, so CI catches recovery regressions early.

All three modes are the same drill core — one load, arm, op loop, sweep,
digest and report fold over a list of engines — differing only in what
rides on it; the printed line is byte-stable per seed in each:

* default: one engine, autocommit op mix, two power cuts + WAL recovery.
* ``--sessions N``: the ops come from N interleaved MVCC sessions
  (snapshot isolation, conflicts, crash-during-commit recovery).
* ``--shards N``: N engines behind a sharded database with independent
  injectors and WALs, the RAM budget split across them, hot keys
  migrating between shards mid-drill instead of power cuts.  Mutually
  exclusive with ``--sessions``.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.harness import run_fault_drill
from repro.util.cli import at_least


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description=(
            "Replay a mixed Wikipedia-revision workload under injected "
            "storage faults and verify every result against ground truth."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="drill seed")
    parser.add_argument(
        "--ops", type=at_least(0), default=3_000,
        help="mixed operations to replay",
    )
    parser.add_argument(
        "--pages", type=at_least(1), default=300,
        help="Wikipedia pages to generate",
    )
    parser.add_argument(
        "--pool-pages", type=at_least(2), default=16, help="buffer-pool frames"
    )
    parser.add_argument(
        "--sessions", type=at_least(0), default=0,
        help="interleaved MVCC sessions (0 = autocommit drill)",
    )
    parser.add_argument(
        "--shards", type=at_least(0), default=0,
        help="shard the drill over N engines (0 = single engine)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also dump the fault log"
    )
    args = parser.parse_args(argv)
    if args.shards and args.sessions:
        parser.error("--shards and --sessions are mutually exclusive")

    report = run_fault_drill(
        seed=args.seed,
        n_pages=args.pages,
        n_ops=args.ops,
        pool_pages=args.pool_pages,
        sessions=args.sessions,
        shards=args.shards,
    )
    print(report.summary())
    for problem in report.check_problems:
        print(f"  check: {problem}", file=sys.stderr)
    if args.verbose:
        for name, value in sorted(report.metrics.get("faults", {}).items()):
            print(f"  faults.{name} = {value}")
    if report.faults_unrecoverable:
        print(
            f"  gate: {report.faults_unrecoverable} unrecoverable fault(s)",
            file=sys.stderr,
        )
        return 1
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
