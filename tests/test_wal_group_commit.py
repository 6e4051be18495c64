"""Group commit trades flushes for a lost-on-crash window, never bytes
or answers.

One seeded insert/update/delete mix with fuzzy checkpoints runs at each
group-commit batch size: the log holds the same records and bytes at
every size, the device flushes fall strictly as batches grow, and the
crash-restart drill at each size ends with zero wrong results.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.util.rng import DeterministicRng
from repro.wal.__main__ import run_wal_drill

SCHEMA = Schema.of(("k", UINT64), ("name", char(12)), ("n", UINT32))

GROUP_COMMIT_SIZES = (1, 4, 8, 32)


def _wal_counts(group_commit: int, n_ops: int = 2_000, seed: int = 0):
    """``(records, bytes, flushes)`` the log shows after the mix."""
    metrics = MetricsRegistry()
    db = Database(
        seed=seed, wal=True, wal_group_commit=group_commit,
        data_pool_pages=32, metrics=metrics,
    )
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("k",))
    rng = DeterministicRng(seed)
    live: list[int] = []
    next_k = 0
    for op_i in range(n_ops):
        draw = rng.random()
        if draw < 0.55 or not live:
            table.insert({"k": next_k, "name": f"r{next_k}", "n": next_k % 97})
            live.append(next_k)
            next_k += 1
        elif draw < 0.8:
            table.update("pk", live[rng.randrange(len(live))],
                         {"n": rng.randrange(1_000)})
        else:
            table.delete("pk", live.pop(rng.randrange(len(live))))
        if op_i % 500 == 499:
            db.checkpoint()
    db.wal.flush()
    wal = metrics.snapshot()["wal"]
    return wal["records"], wal["bytes"], wal["flushes"]


def test_flushes_fall_strictly_as_group_commit_grows():
    counts = [_wal_counts(size) for size in GROUP_COMMIT_SIZES]
    # Batching changes when the log reaches the device, not what it holds.
    assert {(records, nbytes) for records, nbytes, _ in counts} == {
        (2_006, 103_674)
    }
    flushes = [f for _, _, f in counts]
    assert all(a > b for a, b in zip(flushes, flushes[1:]))
    assert flushes == [2_006, 504, 252, 64]


@pytest.mark.parametrize("group_commit", GROUP_COMMIT_SIZES)
def test_drill_finds_no_wrong_result_at_each_batch_size(group_commit):
    report = run_wal_drill(
        seed=0, n_ops=400, crashes=2, group_commit=group_commit,
        checkpoint_every=150,
    )
    assert report.crashes == 2
    assert report.wrong_results == 0
    assert report.passed
