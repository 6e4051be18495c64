"""``python -m repro.obs``: every subcommand end-to-end on a tiny replay."""

import hashlib
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.__main__ import (
    DEFAULT_TIMELINE_SELECTORS,
    format_timeline,
    main,
    run_observed_workload,
    sparkline,
)

pytestmark = pytest.mark.obs

TINY = ["--rows", "60", "--ops", "300", "--samples", "4", "--pool-pages", "16"]


def test_report_subcommand(capsys):
    assert main(["report", *TINY]) == 0
    out = capsys.readouterr().out
    assert "observed workload" in out
    assert "bufferpool" in out and "wal" in out
    assert "engine health:" in out
    assert "bufferpool-hit-rate-floor" in out


def test_top_subcommand(capsys):
    assert main(["top", "-n", "5", *TINY]) == 0
    out = capsys.readouterr().out
    # Fingerprints carry shape, never key values.
    assert "lookup_many:t.pk_cache->k,name x8" in out
    assert "slow queries" in out
    assert "fingerprint" in out  # table header


def test_timeline_subcommand(capsys):
    assert main(["timeline", *TINY]) == 0
    out = capsys.readouterr().out
    assert "retained point(s)" in out
    assert "derived.bufferpool.hit_rate" in out
    assert "rate.profiler.ops" in out


def test_timeline_explicit_selector(capsys):
    argv = ["timeline", "--selector", "rate.wal.records", *TINY]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "rate.wal.records" in out
    assert "derived.bufferpool.hit_rate" not in out  # defaults replaced


def test_timeline_rejects_bad_selector():
    with pytest.raises(ObservabilityError):
        main(["timeline", "--selector", "bogus.selector", *TINY])


def test_export_to_stdout_is_json(capsys):
    assert main(["export", "--spans", "8", *TINY]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "repro.obs"
    assert doc["workload"]["replayed_ops"] == 300
    assert doc["health"]["ok"] is True
    assert doc["profiler"]["top"]
    assert doc["timeline"]["points"]
    assert len(doc["traces"]) <= 8
    assert "spans" not in doc
    assert "metrics" in doc and "derived" in doc


def test_export_to_file(tmp_path, capsys):
    out_path = tmp_path / "obs.json"
    assert main(["export", "--out", str(out_path), *TINY]) == 0
    assert str(out_path) in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["workload"]["replayed_ops"] == 300


def test_health_subcommand(capsys):
    assert main(["health", *TINY]) == 0
    out = capsys.readouterr().out
    assert "engine health:" in out
    assert "lookup-p95-latency-ceiling" in out
    # The audit ring prints even when nothing was tuned.
    assert "tuning actions:" in out
    assert "window(s) evaluated" in out


def test_tune_subcommand(capsys):
    assert main(["tune", *TINY]) == 0
    out = capsys.readouterr().out
    assert "adaptive knobs" in out
    assert "index_cache.admission" in out
    assert "wal.group_commit_records" in out
    assert "tuning actions:" in out
    assert "engine health:" in out


def test_report_shows_knob_section_without_controller(capsys):
    # No --adaptive flag: the controller never exists, yet the knob-state
    # gauges (owned by the subsystems) still render as their own section.
    assert main(["report", *TINY]) == 0
    out = capsys.readouterr().out
    assert "— knobs" in out
    assert "adaptive.knob.wal.group_commit_records" in out


def test_adaptive_flag_keeps_run_deterministic():
    base = run_observed_workload(
        n_rows=60, n_ops=300, samples=4, pool_pages=16
    )
    tuned = run_observed_workload(
        n_rows=60, n_ops=300, samples=4, pool_pages=16, adaptive=True
    )
    assert tuned.controller is not None
    assert tuned.replayed_ops == base.replayed_ops
    # Chunk-synchronous evaluation: arming the controller must not
    # change how many telemetry windows the run samples.
    assert tuned.sampler.samples_taken == base.sampler.samples_taken


def test_no_wal_flag(capsys):
    assert main(["report", "--no-wal", *TINY]) == 0
    out = capsys.readouterr().out
    # The rule still evaluates (counters exist at zero) and stays green.
    assert "[OK ] wal-overhead-ceiling" in out
    assert "engine health: OK" in out


def test_run_observed_workload_is_deterministic():
    a = run_observed_workload(n_rows=60, n_ops=300, samples=4, pool_pages=16)
    b = run_observed_workload(n_rows=60, n_ops=300, samples=4, pool_pages=16)
    assert a.replayed_ops == b.replayed_ops == 300
    assert a.elapsed_ns == b.elapsed_ns
    assert a.registry.snapshot() == b.registry.snapshot()
    assert a.profiler.as_dict() == b.profiler.as_dict()
    assert a.health.as_dict() == b.health.as_dict()


def test_trace_subcommand(capsys):
    assert main(["trace", "-n", "2", *TINY]) == 0
    out = capsys.readouterr().out
    assert "span tree(s)" in out
    assert "trace " in out and "[facade]" in out
    assert "query.lookup" in out or "query.insert" in out


def test_trace_chrome_export(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    assert main(["trace", "--chrome", str(chrome), *TINY]) == 0
    doc = json.loads(chrome.read_text())
    events = doc["traceEvents"]
    assert any(e["ph"] == "M" and e["args"]["name"] == "facade"
               for e in events)
    assert any(e["ph"] == "X" for e in events)


def test_events_subcommand(capsys):
    assert main(["events", *TINY]) == 0
    out = capsys.readouterr().out
    assert "event journal:" in out
    assert "wal.checkpoint" in out  # the mid-run checkpoint journals


def test_events_kind_filter(capsys):
    assert main(["events", "--kind", "wal.*", *TINY]) == 0
    out = capsys.readouterr().out
    assert "wal.checkpoint" in out


def test_sharded_report_and_trace(capsys):
    # Satellite 1: every subcommand accepts --shards N.
    assert main(["report", "--shards", "2", *TINY]) == 0
    out = capsys.readouterr().out
    assert "engine health:" in out and "fleet" in out
    assert main(["trace", "--shards", "2", "-n", "2", *TINY]) == 0
    out = capsys.readouterr().out
    assert "shard.lookup" in out or "shard.scan" in out
    assert "[shard 0]" in out or "[shard 1]" in out


def test_sharded_timeline_shows_the_fleet_series(capsys):
    """Sharded, the sampler reads the facade registry, so the default
    series are read from the rollup's ``fleet.*`` family."""
    assert main(["timeline", "--shards", "2", *TINY]) == 0
    out = capsys.readouterr().out
    shown = [
        line.split()[0] for line in out.splitlines()[1:]
        if not line.startswith(" ")
    ]
    assert shown == [
        "derived.fleet.bufferpool.hit_rate",
        "derived.fleet.index_cache.hit_rate",
        "rate.fleet.profiler.ops",
        "rate.fleet.wal.bytes",
        "rate.fleet.bufferpool.eviction",
        "gauge.fleet.bufferpool.quarantined_pages",
    ]


def test_sharded_events_journal_migrations(capsys):
    assert main(["events", "--shards", "3", "--kind", "migration.*",
                 *TINY]) == 0
    out = capsys.readouterr().out
    assert "migration.intent" in out
    assert "migration.commit" in out


def test_fleet_subcommand(capsys):
    assert main(["fleet", *TINY]) == 0
    out = capsys.readouterr().out
    assert "fleet:" in out and "heat imbalance" in out
    assert "engine health:" in out
    # The per-engine rules evaluate against the fleet.* aggregates.
    assert "derived.fleet.bufferpool.hit_rate" in out
    assert "fleet_heat_balance" in out


def test_tune_rejects_shards(capsys):
    assert main(["tune", "--shards", "2", *TINY]) == 2
    assert "single-engine" in capsys.readouterr().err


#: sha256 of the single-engine ``top`` and ``export`` stdout at TINY: the
#: profiler's rollup, slow log and JSON export, byte for byte.
SINGLE_ENGINE_PINS = {
    "top": "6d2ca15332da88ce2016fa89d3c53fc7f7da24617ef2d28fd9d9637d3417da64",
    "export": "d43a7ccaade03b23539eb258498652cb009c5010550ca9e96f5ad201ac357ac9",
}


@pytest.mark.parametrize("command", sorted(SINGLE_ENGINE_PINS))
def test_single_engine_profile_output_is_pinned(command, capsys):
    assert main([command, *TINY]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SINGLE_ENGINE_PINS[command]


def test_sharded_workload_is_deterministic():
    a = run_observed_workload(
        n_rows=60, n_ops=300, samples=4, pool_pages=16, shards=2,
        observe=True,
    )
    b = run_observed_workload(
        n_rows=60, n_ops=300, samples=4, pool_pages=16, shards=2,
        observe=True,
    )
    assert a.replayed_ops == b.replayed_ops == 300
    assert a.elapsed_ns == b.elapsed_ns
    assert a.registry.snapshot() == b.registry.snapshot()
    assert a.journal.as_dicts() == b.journal.as_dicts()
    assert a.trace.as_dicts() == b.trace.as_dicts()


def test_sharded_profile_covers_every_shard():
    """``top``/``export --shards N`` used to show shard 0's profiler only."""
    run = run_observed_workload(
        n_rows=60, n_ops=300, samples=4, pool_pages=16, shards=3,
    )
    per_shard = [run.database.shard(i).tracer.profiler for i in range(3)]
    assert all(p.operations > 0 for p in per_shard)
    profiled = sum(p.operations for p in per_shard)
    assert sum(s.calls for s in run.profiler.top()) == profiled
    assert run.profiler.operations == profiled
    slow = [p.elapsed_ns for p in run.profiler.slow_queries()]
    assert slow == sorted(slow, reverse=True) and len(slow) > 64


def test_workload_takes_exactly_samples_windows():
    """310 ops over 4 samples: the last chunk takes the 2-op remainder, so
    the run samples a baseline and 4 windows, not a fifth 2-op one."""
    run = run_observed_workload(n_rows=60, n_ops=310, samples=4, pool_pages=16)
    assert run.replayed_ops == 310
    assert run.sampler.samples_taken == 5


def test_sparkline_rendering():
    assert sparkline([]) == "(no data)"
    assert sparkline([5.0, 5.0, 5.0]) == "===" or len(sparkline([5.0] * 3)) == 3
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(line) == 4 and line[0] == " " and line[-1] == "@"
    wide = sparkline(list(range(200)), width=30)
    assert len(wide) == 30  # down-sampled, newest point kept


def test_format_timeline_empty_sampler():
    from repro.obs import MetricsRegistry
    from repro.obs.sampler import TelemetrySampler

    sampler = TelemetrySampler(MetricsRegistry(), clock=lambda: 0.0)
    assert "no sampled series" in format_timeline(sampler)


def test_default_run_evicts_in_every_window(capsys):
    """At default arguments the pool is smaller than the loaded table, so
    every default timeline series carries a signal: each window after the
    baseline misses and evicts, and the default health verdict stays OK."""
    run = run_observed_workload()
    for selector in DEFAULT_TIMELINE_SELECTORS:
        assert run.sampler.series(selector), selector
    hit_rates = [v for _t, v in run.sampler.series("derived.bufferpool.hit_rate")]
    evictions = [v for _t, v in run.sampler.series("rate.bufferpool.eviction")]
    assert len(hit_rates) == len(evictions) == run.sampler.samples_taken - 1
    assert max(hit_rates) < 1 and min(evictions) > 0
    assert main(["health"]) == 0
    assert capsys.readouterr().out.startswith("engine health: OK\n")


def test_smaller_pool_turns_reused_pins_into_reads_with_identical_rows():
    """One seeded replay at two pool sizes: the 6-page pool reads pages
    the 64-page pool only reuses, and both end with the same rows."""
    runs = {
        pool: run_observed_workload(n_rows=400, n_ops=800, pool_pages=pool)
        for pool in (6, 64)
    }
    rows = {
        pool: sorted(
            (r["k"], r["name"], r["n"]) for r in run.database.table("t").scan()
        )
        for pool, run in runs.items()
    }
    assert len(rows[6]) == 436
    assert rows[6] == rows[64]
    read = {
        pool: sum(s.pages_read for s in run.profiler.top())
        for pool, run in runs.items()
    }
    reused = {
        pool: sum(s.pages_reused for s in run.profiler.top())
        for pool, run in runs.items()
    }
    assert read[6] > 0 and read[64] == 0
    assert reused[64] > reused[6]
