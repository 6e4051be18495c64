"""MVCC contention sweep and crash-during-commit survival demo (§5g).

Two deterministic tables, all operation counts (never wall time):

* **Contention sweep** — the sessions-mode fault drill on a deliberately
  tiny key space, at 1..8 concurrent sessions.  Commits, first-writer-
  wins conflicts, and aborts all scale with the session count while
  wrong results stay at zero and the report digest stays bit-for-bit
  reproducible — concurrency changes throughput accounting, never
  answers.

* **Crash-point matrix** — a three-session history (commits, an abort,
  an in-flight straggler) cut at every WAL frame boundary and recovered
  onto a blank disk.  Each cut's recovered engine state is checked
  against both independent oracles (`serial_fold`, the logical commit-
  order replay, and `committed_positional_fold`, the physical slot
  fold); the row reports how many cuts stranded a transaction and that
  every single one agreed.
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


@dataclass(frozen=True)
class CrashMatrixRow:
    """Boundary-cut recovery sweep over one multi-session log."""

    crash_points: int
    cuts_with_rollback: int
    distinct_states: int
    oracle_mismatches: int


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


def run_crash_matrix() -> CrashMatrixRow:
    from repro.query.database import Database
    from repro.schema.record import unpack_record_map
    from repro.schema.schema import Schema
    from repro.schema.types import UINT32, char
    from repro.txn.oracle import committed_positional_fold, serial_fold
    from repro.wal.record import frame_boundaries, scan_wal
    from repro.wal.replay import recover

    seed = 20260808
    schema = Schema.of(("id", UINT32), ("name", char(8)), ("score", UINT32))
    db = Database(
        seed=seed, wal=True, wal_group_commit=4,
        page_size=512, data_pool_pages=8,
    )
    db.create_table("t", schema)
    db.create_index("t", "by_id", ("id",))
    for i in range(1, 9):
        db.table("t").insert({"id": i, "name": f"r{i}", "score": i * 10})
    a, b, c = db.session(), db.session(), db.session()
    a.begin(); b.begin()
    a.update("t", 1, {"score": 111})
    b.insert("t", {"id": 20, "name": "b20", "score": 200})
    a.delete("t", 5)
    a.commit()
    b.commit(flush=True)
    c.begin()
    c.update("t", 3, {"score": 333})
    c.abort()
    b.begin()
    b.update("t", 6, {"score": 666})   # left in flight at the tail
    db.wal.flush()
    log = bytes(db.wal.device.data)

    crash_points = 0
    rollbacks = 0
    mismatches = 0
    states = set()
    for cut in frame_boundaries(log):
        prefix = log[:cut]
        records = scan_wal(prefix).records
        recovered, report = recover(
            prefix, page_size=512, data_pool_pages=8, seed=seed,
        )
        crash_points += 1
        rollbacks += int(report.txns_rolled_back > 0)
        try:
            table = recovered.table("t")
            got = {r["id"]: r["score"] for r in table.scan()}
        except Exception:
            got = {}
        serial = {
            k: r["score"]
            for k, r in serial_fold(records, "t", schema, "id").items()
        }
        positional = {}
        for (tname, _pid, _slot), payload in committed_positional_fold(
            records
        ).items():
            if tname == "t":
                row = unpack_record_map(schema, payload)
                positional[row["id"]] = row["score"]
        if got != serial or got != positional:
            mismatches += 1
        states.add(frozenset(got.items()))
    return CrashMatrixRow(
        crash_points=crash_points,
        cuts_with_rollback=rollbacks,
        distinct_states=len(states),
        oracle_mismatches=mismatches,
    )


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

    matrix = run_crash_matrix()
    print_table(
        ["crash points", "cuts w/ rollback", "distinct states",
         "oracle mismatches"],
        [
            (
                matrix.crash_points,
                matrix.cuts_with_rollback,
                matrix.distinct_states,
                matrix.oracle_mismatches,
            )
        ],
        title="Crash-during-commit matrix (every WAL frame boundary)",
    )
    assert matrix.oracle_mismatches == 0
    assert matrix.cuts_with_rollback > 0
    return rows


if __name__ == "__main__":
    main()
