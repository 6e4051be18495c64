"""The end-to-end fault drill: many faults, zero wrong answers.

This is the acceptance test for the fault/recovery stack: a seeded mixed
workload replayed under ≥100 injected faults must finish with every
result matching ground truth, a clean invariant walk, a balanced fault
ledger, and a bit-for-bit reproducible report digest.
"""

import pytest

from repro.faults.harness import DrillReport, run_fault_drill
from repro.faults.__main__ import main as faults_cli

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def drill() -> DrillReport:
    return run_fault_drill(seed=0)


def test_drill_injects_at_least_100_faults(drill):
    assert drill.faults_injected >= 100


def test_drill_returns_zero_wrong_results(drill):
    assert drill.wrong_results == 0


def test_drill_ledger_balances(drill):
    assert drill.faults_detected == (
        drill.faults_recovered + drill.faults_unrecoverable
    )
    assert drill.ledger_balanced


def test_drill_survives_with_a_consistent_database(drill):
    assert drill.check_ok, drill.check_problems


def test_drill_passed_and_says_so(drill):
    assert drill.passed
    assert "PASS" in drill.summary()


def test_drill_actually_recovered_something(drill):
    # The drill is vacuous if nothing went wrong: demand real detections,
    # retries, and at least one index rebuilt from the heap.
    assert drill.faults_detected > 0
    assert drill.retries > 0
    assert drill.index_rebuilds > 0
    assert drill.quarantined_pages > 0


def test_drill_survives_crash_restart_cycles(drill):
    # The WAL era adds full crash-restart cycles to the drill: the log
    # is torn mid-append, the process "dies", and redo replay must bring
    # the survivor back — still with zero wrong results (asserted above).
    assert drill.crash_restarts == 2
    assert drill.wal_records > 0


def test_drill_redo_recovers_heap_pages(drill):
    # Heap pages flipped from "honestly unrecoverable" to
    # "redo-recovered": corrupted ones are rematerialized from the log.
    assert drill.heap_page_rebuilds > 0
    assert "redo-recovered" in drill.summary()


def test_drill_is_reproducible_bit_for_bit(drill):
    again = run_fault_drill(seed=0)
    assert again.digest == drill.digest
    # "Same twice" only proves determinism; the literal proves a refactor
    # of the harness replayed the same ops, faults and recoveries.
    assert drill.digest == (
        "b34e119944d8b374449ace13e5ef828ffa18ec931ff0970fc184b79f6c4553b9"
    )
    assert again.faults_injected == drill.faults_injected
    assert again.metrics == drill.metrics


def test_different_seed_different_faults_same_verdict(drill):
    other = run_fault_drill(seed=7, n_pages=150, n_ops=1_200, pool_pages=12)
    assert other.passed
    assert other.digest != drill.digest
    assert other.digest == (
        "8815dd0adbdaf22cc6e143a7a98ff3e3e3841acba17df0344aa8167894338a49"
    )


def test_cli_exit_code_and_output(capsys):
    code = faults_cli(
        ["--seed", "3", "--ops", "400", "--pages", "80", "--pool-pages", "12"]
    )
    out = capsys.readouterr().out
    assert code == 0
    # The whole line, so the report fold is checked counter by counter.
    assert out == (
        "fault drill [PASS] seed=3: 400 ops, 2 faults injected, "
        "1 detected = 1 recovered + 0 unrecoverable, 0 retries, "
        "0 index rebuild(s), 1 heap page(s) redo-recovered, "
        "2 crash restart(s), 435 WAL record(s), 0 page(s) quarantined, "
        "0 wrong result(s), check=OK, digest=e292eb2016886d61\n"
    )


@pytest.fixture(scope="module")
def sessions_drill() -> DrillReport:
    # High-contention shape: few pages, many sessions racing for the
    # same keys, so FWW conflicts and crash-stranded txns both occur.
    return run_fault_drill(
        seed=3, n_pages=6, revisions_per_page=2, n_ops=800, sessions=6
    )


def test_sessions_drill_passes_under_contention(sessions_drill):
    assert sessions_drill.passed
    assert sessions_drill.wrong_results == 0
    assert sessions_drill.sessions == 6
    assert sessions_drill.digest == (
        "fb8b330a4b44e72ea8393757ab518a1e83b084ddd1bfac9ccda1bb71b7f759f8"
    )


def test_sessions_drill_exercises_the_txn_machinery(sessions_drill):
    assert sessions_drill.txn_commits > 100
    assert sessions_drill.txn_conflicts > 0
    assert sessions_drill.txn_aborts >= sessions_drill.txn_conflicts


def test_sessions_drill_is_reproducible_bit_for_bit(sessions_drill):
    again = run_fault_drill(
        seed=3, n_pages=6, revisions_per_page=2, n_ops=800, sessions=6
    )
    assert again.digest == sessions_drill.digest
    assert again.txn_conflicts == sessions_drill.txn_conflicts


def test_sessions_drill_under_storage_faults():
    # The contention fixture above never misses its pool (6 pages), so it
    # meets only the two scheduled crash points.  This shape thrashes an
    # 8-frame pool: MVCC reads, conflicts and commits run while index and
    # heap pages are being corrupted, rebuilt and redo-recovered.
    report = run_fault_drill(
        seed=3, n_pages=120, n_ops=1_000, sessions=4, pool_pages=8
    )
    assert report.passed
    assert report.faults_injected > 20
    assert report.index_rebuilds > 0
    assert report.txn_commits > 100
    assert report.digest == (
        "055329e1fd188e8ae56ac8fd9d6ae7d5c13036db3612055b05800481e786fa4a"
    )


def test_sessions_cli_flag(capsys):
    code = faults_cli(
        ["--seed", "1", "--ops", "300", "--pages", "60", "--sessions", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fault drill [PASS]" in out
    assert "4 session(s)" in out and "conflict(s)" in out


@pytest.fixture(scope="module")
def sharded_drill() -> DrillReport:
    # Big enough that per-shard pools miss (faults need real I/O) and
    # that both mid-drill rebalances migrate hot keys between shards.
    return run_fault_drill(seed=2, n_pages=240, n_ops=1_500, shards=3)


def test_sharded_drill_passes_with_zero_wrong_results(sharded_drill):
    assert sharded_drill.passed
    assert sharded_drill.wrong_results == 0
    assert sharded_drill.shards == 3
    assert sharded_drill.check_ok  # includes the cross-shard owner walk
    assert sharded_drill.digest == (
        "4e0df8025841a10f3c532e1b4c43212a1a6ed9c09f35f3ae1ca1c1aa07608e77"
    )


def test_sharded_drill_injects_and_recovers_faults(sharded_drill):
    assert sharded_drill.faults_injected > 50
    assert sharded_drill.faults_recovered > 0
    assert sharded_drill.faults_unrecoverable == 0
    assert sharded_drill.ledger_balanced
    # More rebuilds than shards: the index-page filter must follow the
    # live tree, or at-rest index faults stop after each shard's first
    # rebuild-from-heap swaps the tree out.
    assert sharded_drill.index_rebuilds > sharded_drill.shards


def test_sharded_drill_migrates_hot_keys_under_fire(sharded_drill):
    assert sharded_drill.keys_migrated > 0
    shard_tree = sharded_drill.metrics["shard"]
    assert shard_tree["rebalance"]["runs"] == 2
    assert shard_tree["migration"]["completed"] > 0
    # Per-shard namespaces all saw traffic.
    for i in range(3):
        assert shard_tree[str(i)]["bufferpool"]["hit"] > 0


def test_sharded_drill_is_reproducible_bit_for_bit(sharded_drill):
    again = run_fault_drill(seed=2, n_pages=240, n_ops=1_500, shards=3)
    assert again.digest == sharded_drill.digest
    assert again.keys_migrated == sharded_drill.keys_migrated
    assert again.faults_injected == sharded_drill.faults_injected


def test_sharded_and_sessions_modes_are_exclusive():
    with pytest.raises(ValueError):
        run_fault_drill(shards=2, sessions=2)


def test_sharded_cli_flag(capsys):
    code = faults_cli(
        ["--seed", "1", "--ops", "500", "--pages", "150", "--shards", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fault drill [PASS]" in out
    assert "2 shard(s)" in out and "migrated" in out
