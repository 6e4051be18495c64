"""The benchmark's own checks, at 1/50 scale.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``; not part of
the tier-1 suite (``pyproject.toml`` collects ``tests/`` only).
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare
from bench.metrics import (
    BY_NAME, END_TO_END, PER_LAYER, WORKLOADS, benchmark_json,
)
from bench.oracle import ROW, SCAN, Checker, summarize

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int = 0, seed: int = 0,
        hashseed: str = "0") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(result: dict, exact: bool) -> dict:
    return {
        name: cell["value"] for name, cell in result["metrics"].items()
        if BY_NAME[name].exact == exact
    }


# -- the contract ---------------------------------------------------------------


def test_benchmark_json_is_generated_from_the_metric_table():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json(on_disk["run_seconds"])
    assert 1 <= on_disk["run_seconds"] <= 60
    assert 2 <= len(on_disk["workloads"]) <= 8
    assert 1 <= len(on_disk["end_to_end"]) <= 16
    assert 1 <= len(on_disk["per_layer"]) <= 128
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for m in on_disk["end_to_end"] + on_disk["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in on_disk["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in on_disk["end_to_end"]
    )
    for w in on_disk["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_prints_exactly_the_declared_metrics(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in spec]
    for m in spec:
        assert result["metrics"][m.name]["unit"] == m.unit
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_without_the_engine_there_is_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    must fail rather than print a result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "point_fit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_nothing_outside_bench_tests_looks_like_a_test():
    bench = ROOT / "bench"
    for path in bench.rglob("*.py"):
        if "tests" not in path.relative_to(bench).parts:
            assert not re.match(r"(test|bench)_.*\.py$", path.name), path


# -- determinism ------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_exact_metrics_repeat_bit_for_bit(workload, trace):
    """Same seed: every count-based metric prints the same digits, also
    under another str-hash salt; timed metrics are free to differ."""
    first = values(run(workload, trace), exact=True)
    assert first
    assert first == values(run(workload, trace, hashseed="4242"), exact=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_trace_not_the_schema(workload):
    base, other = run(workload), run(workload, seed=1)
    assert list(base["metrics"]) == list(other["metrics"])
    assert other["correct"] and other["failed"] == 0
    assert values(base, exact=True) != values(other, exact=True)


# -- what the layers should show --------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_the_traced_op_time(workload):
    layers = run(workload, trace=1)["metrics"]
    assert layers["bench.trace.closure_err"]["value"] < 0.05


def test_workloads_separate_the_layers():
    def layer(workload, name):
        return run(workload, trace=1)["metrics"][name]["value"]

    assert layer("point_fit", "storage.disk.reads_per_op") == 0
    assert layer("point_fit", "storage.pool.hit_rate") == 1.0
    assert layer("point_thrash", "storage.disk.reads_per_op") > 0
    assert layer("point_thrash", "storage.pool.hit_rate") < 1.0
    for workload in WORKLOADS:
        has_wal = workload in ("oltp_wal", "shard_fleet")
        assert (layer(workload, "wal.flushes_per_kop") > 0) == has_wal
        assert (layer(workload, "wal.self_us_per_op") > 0) == has_wal
        assert (layer(workload, "txn.commit_p50_us") > 0) == (
            workload == "oltp_wal"
        )
        assert (layer(workload, "shard.fanout_mean") > 0) == (
            workload == "shard_fleet"
        )
        assert (layer(workload, "columnar.cold_query_p50_us") > 0) == (
            workload == "analytic_columnar"
        )
    assert layer("oltp_wal", "wal.recover_ms") > 0
    assert layer("oltp_wal", "txn.conflict_frac") > 0


# -- the oracle --------------------------------------------------------------------


def test_a_corrupted_answer_is_counted_as_failed():
    from repro.core.index_cache.cached_index import LookupResult
    from repro.errors import QueryError

    row = {"rev_id": 7, "rev_len": 100}
    checker = Checker()
    assert checker.check(ROW, row, LookupResult(dict(row), True, False))
    assert checker.failed_frac == 0
    assert not checker.check(
        ROW, row, LookupResult({**row, "rev_len": 101}, True, False)
    )
    assert not checker.check(ROW, row, LookupResult(None, False, False))
    assert not checker.check(ROW, row, QueryError("raised"))
    rows = [{"id": 1, "n": 5}, {"id": 2, "n": 6}]
    expected = (("id", "n"), (2, 3, 11))
    assert checker.check(SCAN, expected, summarize(SCAN, expected, rows))
    assert not checker.check(
        SCAN, expected, summarize(SCAN, expected, rows[:1])
    )
    assert checker.attempted == 6 and checker.failed == 4
    assert checker.failed_frac > 0


# -- --compare ---------------------------------------------------------------------


def results(tmp_path, name, **metrics) -> str:
    cells = {
        "ops_per_s": [1000.0, 1010.0, 990.0, 1005.0],
        "sim_us_per_op": [3.25] * 4,
        "bench.host.calib_us": [950.0] * 4,
    }
    cells.update(metrics)
    doc = {
        "claim": None,
        "args": {"seed": 0, "seconds": 1, "scale": 1.0, "runs": 4},
        "workloads": {"point_fit": {
            "attempted": 10, "failed": 0,
            "metrics": {
                k: {"unit": BY_NAME[k].unit, "values": v}
                for k, v in cells.items()
            },
        }},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_accepts_agreement_and_rejects_violations(tmp_path, capsys):
    a = results(tmp_path, "a.json")
    assert compare.main(a, results(tmp_path, "same.json")) == 0
    out = capsys.readouterr().out
    assert "equal" in out and "within" in out and "noisy-host" not in out

    slower = results(tmp_path, "slower.json", ops_per_s=[800.0] * 4)
    assert compare.main(a, slower) == 1
    assert "WORSE" in capsys.readouterr().out
    faster = results(tmp_path, "faster.json", ops_per_s=[1300.0] * 4)
    assert compare.main(a, faster) == 0

    drifted = results(tmp_path, "drifted.json", sim_us_per_op=[3.26] * 4)
    assert compare.main(a, drifted) == 1
    assert "DIFFERS" in capsys.readouterr().out


def test_compare_never_calls_a_noisy_metric_unchanged(tmp_path, capsys):
    a = results(tmp_path, "a.json")
    noisy = results(
        tmp_path, "noisy.json", ops_per_s=[700.0, 1000.0, 1300.0, 1600.0],
        **{"bench.host.calib_us": [1200.0] * 4},
    )
    assert compare.main(a, noisy) == 0
    out = capsys.readouterr().out
    assert "unresolved" in out and "noisy-host" in out
    line = next(l for l in out.splitlines() if l.lstrip().startswith("ops_per_s"))
    assert "within" not in line
