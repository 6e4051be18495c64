"""MVCC contention sweep (§5g), in deterministic operation counts.

The sessions-mode fault drill on a deliberately tiny key space, at 1..8
concurrent sessions.  Commits, first-writer-wins conflicts, and aborts
all scale with the session count while wrong results stay at zero and
the report digest stays bit-for-bit reproducible — concurrency changes
throughput accounting, never answers.  Crash-during-commit survival is
checked at every WAL frame boundary by ``tests/test_txn_crash.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.harness import run_fault_drill

SESSION_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class ContentionRow:
    """One sessions-mode drill at a fixed concurrency level."""

    sessions: int
    commits: int
    aborts: int
    conflicts: int
    wrong_results: int
    digest: str

    @property
    def conflict_rate(self) -> float:
        return self.conflicts / max(1, self.commits + self.aborts)


def run_contention() -> list[ContentionRow]:
    """The sessions-mode drill (seed 3, 800 ops) at each session count."""
    rows = []
    for n in SESSION_COUNTS:
        report = run_fault_drill(
            seed=3, n_pages=6, revisions_per_page=2, n_ops=800, sessions=n,
        )
        rows.append(
            ContentionRow(
                sessions=n,
                commits=report.txn_commits,
                aborts=report.txn_aborts,
                conflicts=report.txn_conflicts,
                wrong_results=report.wrong_results,
                digest=report.digest,
            )
        )
    return rows


def main() -> list[ContentionRow]:
    from repro.experiments.runner import print_table

    rows = run_contention()
    print_table(
        ["sessions", "commits", "aborts", "conflicts", "conflict rate",
         "wrong", "digest"],
        [
            (
                row.sessions,
                row.commits,
                row.aborts,
                row.conflicts,
                f"{row.conflict_rate:.3f}",
                row.wrong_results,
                row.digest[:12],
            )
            for row in rows
        ],
        title="MVCC contention sweep (fault drill, 6-page key space)",
    )
    assert all(row.wrong_results == 0 for row in rows)
    # Contention must actually materialize at the top of the sweep.
    assert rows[-1].conflicts > 0
    return rows


if __name__ == "__main__":
    main()
