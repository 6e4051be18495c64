"""The crash-point matrix: recovery verified after EVERY record boundary.

A seeded mixed workload (inserts, non-key updates, deletes, fuzzy
checkpoints) is run once against a WAL-backed database; the resulting log
is then cut at every frame boundary — ≥200 crash points — and each
prefix is recovered onto a blank disk.  At every point the recovered
database must agree exactly with a dict oracle folded independently from
the durable records: no committed (durable-LSN) write may be lost, no
uncommitted write may survive, and the invariant walker must pass.

A sampled sweep of *mid-frame* cuts checks the other half of the
contract: a torn tail is detected by CRC, truncated to the previous
boundary, and recovery proceeds as if the crash had landed there.
"""

from __future__ import annotations

import pytest

from repro.faults.checker import check_database
from repro.query.database import Database
from repro.schema.record import unpack_record_map
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char
from repro.util.rng import DeterministicRng
from repro.wal.record import (
    HEAP_OP_TYPES,
    RecordType,
    frame_boundaries,
    scan_wal,
)
from repro.wal.replay import recover

SCHEMA = Schema.of(("id", UINT32), ("pad", char(8)), ("score", UINT32))
PAGE_SIZE = 512
POOL_PAGES = 8
SEED = 20260806


def build_workload_log() -> bytes:
    """One seeded mixed workload; returns the complete flushed log."""
    rng = DeterministicRng(SEED)
    db = Database(
        seed=SEED, wal=True, wal_group_commit=4,
        page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES,
    )
    db.create_table("t", SCHEMA)
    db.create_index("t", "by_id", ("id",))
    table = db.table("t")
    live: list[int] = []
    next_id = 0
    for op_i in range(260):
        draw = rng.random()
        if draw < 0.55 or not live:
            table.insert(
                {"id": next_id, "pad": f"p{next_id % 100}", "score": next_id}
            )
            live.append(next_id)
            next_id += 1
        elif draw < 0.80:
            table.update(
                "by_id", live[rng.randrange(len(live))],
                {"score": rng.randrange(100_000)},
            )
        else:
            victim = live.pop(rng.randrange(len(live)))
            assert table.delete("by_id", victim)
        if op_i in (90, 180):
            db.checkpoint()
    db.wal.flush()
    return db.wal.device.data


def oracle_rows(log_bytes: bytes) -> dict[int, tuple[str, int]]:
    """Fold the durable records into ``id -> (pad, score)`` ground truth.

    This is the *definition* of committed: an operation's effect belongs
    in the recovered database iff its record is inside the valid prefix.
    """
    by_rid: dict[tuple[int, int], bytes] = {}
    for rec in scan_wal(log_bytes).records:
        if rec.rtype not in HEAP_OP_TYPES:
            continue
        rid = (rec.page_id, rec.slot)
        if rec.rtype is RecordType.DELETE:
            by_rid.pop(rid, None)
        else:
            by_rid[rid] = rec.payload
    rows: dict[int, tuple[str, int]] = {}
    for payload in by_rid.values():
        row = unpack_record_map(SCHEMA, payload)
        rows[row["id"]] = (row["pad"], row["score"])
    return rows


@pytest.fixture(scope="module")
def full_log() -> bytes:
    return build_workload_log()


@pytest.fixture(scope="module")
def boundaries(full_log) -> list[int]:
    return frame_boundaries(full_log)


def recovered_state(db) -> dict[int, tuple[str, int]]:
    return {
        r["id"]: (r["pad"], r["score"]) for r in db.table("t").scan()
    }


def test_matrix_has_at_least_200_crash_points(boundaries):
    assert len(boundaries) >= 200


def test_every_record_boundary_recovers_exactly(full_log, boundaries):
    distinct_states = set()
    for cut in boundaries:
        prefix = full_log[:cut]
        db, report = recover(
            prefix, page_size=PAGE_SIZE,
            data_pool_pages=POOL_PAGES, seed=SEED,
        )
        assert not report.torn_tail  # boundary cuts are clean
        expected = oracle_rows(prefix)
        got = recovered_state(db)
        assert got == expected, f"state mismatch after cut at byte {cut}"
        # The index must agree with the heap at every point too.
        for key in sorted(expected):
            result = db.table("t").lookup("by_id", key)
            assert result.found
        check = check_database(db)
        assert check.ok, (cut, check.problems)
        distinct_states.add(frozenset(expected.items()))
    # Non-vacuity: the matrix must actually walk through many states.
    assert len(distinct_states) > 100


def test_uncommitted_suffix_never_survives(full_log, boundaries):
    """Cutting earlier can only shrink/rewind state, never invent rows."""
    final = oracle_rows(full_log)
    cut = boundaries[len(boundaries) // 2]
    db, _ = recover(
        full_log[:cut], page_size=PAGE_SIZE,
        data_pool_pages=POOL_PAGES, seed=SEED,
    )
    got = recovered_state(db)
    assert got != final  # the half-log state genuinely lost the suffix
    # Any id recovered but absent from the final state was later deleted,
    # never "resurrected": every recovered id must have a durable insert
    # in the prefix.
    prefix_ids = {
        unpack_record_map(SCHEMA, rec.payload)["id"]
        for rec in scan_wal(full_log[:cut]).records
        if rec.rtype in (RecordType.INSERT, RecordType.UPDATE)
    }
    assert set(got) <= prefix_ids


def test_mid_frame_cuts_truncate_to_previous_boundary(full_log, boundaries):
    sample = boundaries[4::9]
    assert len(sample) >= 20
    for bound in sample:
        if bound + 3 > len(full_log):
            continue
        torn = full_log[: bound + 3]  # 3 bytes into the next frame
        db, report = recover(
            torn, page_size=PAGE_SIZE,
            data_pool_pages=POOL_PAGES, seed=SEED,
        )
        assert report.torn_tail
        assert report.valid_bytes == bound
        assert recovered_state(db) == oracle_rows(full_log[:bound])
        assert check_database(db).ok


def test_survived_disk_crash_matrix():
    """Live crash-restart cycles: torn log appends against a real disk.

    Re-runs the workload, arming a power cut at an arbitrary byte past
    the durable tail each cycle; after every crash the database restarts
    from the survived disk + truncated log and must agree with the
    oracle.  At least one restart must use a bounded (checkpointed) redo
    window to prove fuzzy checkpoints engage.
    """
    from repro.errors import SimulatedCrashError

    rng = DeterministicRng(SEED + 1)
    db = Database(
        seed=SEED, wal=True, wal_group_commit=4,
        page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES,
    )
    db.create_table("t", SCHEMA)
    db.create_index("t", "by_id", ("id",))
    table = db.table("t")
    next_id = 0
    crashes = 0
    bounded_redos = 0
    ops = 0
    while ops < 600 and crashes < 12:
        if ops % 45 == 44:
            db.wal.device.crash_after(
                db.wal.device.size + rng.randint(1, 200)
            )
        try:
            if ops % 90 == 60:
                db.checkpoint()
            if next_id and rng.random() < 0.3:
                table.update(
                    "by_id", rng.randrange(next_id),
                    {"score": rng.randrange(100_000)},
                )
            else:
                table.insert(
                    {"id": next_id, "pad": "x", "score": next_id}
                )
                next_id += 1
            ops += 1
        except SimulatedCrashError:
            crashes += 1
            db, report = recover(
                db.wal, disk=db.disk,
                page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES, seed=SEED,
            )
            table = db.table("t")
            bounded_redos += int(report.redo_from > 1)
            expected = oracle_rows(db.wal.device.data)
            assert recovered_state(db) == expected
            assert check_database(db).ok
            next_id = max(expected, default=-1) + 1
    assert crashes >= 8
    assert bounded_redos >= 1


def test_replay_is_idempotent_after_back_to_back_crashes(full_log, boundaries):
    """Regression: recover, crash again before any new writes land, and
    recover once more — replay must not double-apply.  Sampled across
    the boundary matrix so torn positions with pending redo are covered
    too, not just the clean full-log case."""
    for cut in boundaries[:: max(1, len(boundaries) // 16)] + [len(full_log)]:
        prefix = full_log[:cut]
        db1, _ = recover(
            prefix, page_size=PAGE_SIZE,
            data_pool_pages=POOL_PAGES, seed=SEED,
        )
        state1 = recovered_state(db1)
        log1 = bytes(db1.wal.device.data)
        # Immediate second crash: nothing was written after recovery,
        # so the survived log replays over a blank disk again.
        db2, report2 = recover(
            log1, page_size=PAGE_SIZE,
            data_pool_pages=POOL_PAGES, seed=SEED,
        )
        assert recovered_state(db2) == state1, f"double-apply at cut {cut}"
        assert bytes(db2.wal.device.data) == log1
        applied = db2.metrics.get("wal.replay.records_applied").value
        assert applied <= report2.records_scanned
        assert check_database(db2).ok


def test_wal_drill_keeps_its_group_commit_across_restarts(monkeypatch):
    """``python -m repro.wal --group-commit 1``: every recovered engine
    still flushes per record (it used to fall back to the default 8)."""
    from repro.wal import replay
    from repro.wal.__main__ import run_wal_drill

    restarts = []

    def spy(*args, **kwargs):
        db, report = recover(*args, **kwargs)
        restarts.append((db, db.wal.device.appends))
        return db, report

    monkeypatch.setattr(replay, "recover", spy)
    report = run_wal_drill(n_ops=300, crashes=2, group_commit=1)
    assert report.passed and report.crashes == 2
    assert [db.wal.group_commit_records for db, _ in restarts] == [1, 1]
    db, appends_at_restart = restarts[-1]
    logged = db.metrics.snapshot()["wal"]["records"]
    assert logged > 0
    assert db.wal.device.appends - appends_at_restart == logged
