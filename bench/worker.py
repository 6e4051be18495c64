"""One workload, one process: set up, measure, verify, print one JSON line.

Closed loop, one client, no think time — the engine is an embedded
single-threaded library, so the caller waits for each reply and
throughput at the stated size is the figure (no rate sweep).

Phases, in order:

1. **set-up** (build + load + warm-up through the public API), three
   times on fresh engines for ``setup_s``'s median, once when tracing;
2. ``gc.collect(); gc.freeze()`` — the loaded data leaves the collector's
   sight, GC stays enabled;
3. **measure**, tracing off: whole cycles of planned calls until
   ``--seconds`` have passed, and never fewer than the workload's *exact
   window* — a fixed number of cycles at whose end the counters are read,
   so every count-based metric repeats exactly on any host;
4. with ``--trace 1``: a **traced** slice (span shims installed) and a
   **profiled** slice (``cProfile``), both fixed op counts continuing the
   same stream;
5. **finish**: workload-specific verification (the power cut and
   recovery of ``oltp_wal``), after which the verdict is printed.

Each call is timed alone with ``perf_counter_ns`` into a preallocated
``array``; its answer is checked against the oracle only after the cycle
it belongs to has finished, outside every timed bracket.  Every wall
time is reported at reference host speed (see :mod:`bench.host`).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from bench import host, layers, spans
from bench.metrics import END_TO_END, LAYERS, PER_LAYER
from bench.oracle import Checker, summarize
from bench.workloads import CLASSES, WORKLOAD_CLASSES

SETUP_REPEATS = 3
TRACE_CYCLES = 2
PROFILE_CYCLES = 1
#: Calls are grouped into slices of about this long, one host-speed
#: probe between slices.
SLICE_NS = 20_000_000
OUT_DIR = Path(__file__).resolve().parent / "out"


class Samples:
    """Per-call latency and class, in arrays that are grown between
    cycles, never while a call is being timed."""

    def __init__(self) -> None:
        self.raw_ns = array("q")
        self.cls = array("b")
        self.n = 0
        self.cycle_ends: list[int] = []
        #: (first call, one past last call, probe ns) per slice
        self.slices: list[tuple[int, int, float]] = []
        # filled by normalise():
        self.ns = array("d")      # latency at reference host speed
        self.factor = array("d")  # host-speed factor each call ran under

    def reserve(self, extra: int) -> None:
        short = self.n + extra - len(self.raw_ns)
        if short > 0:
            grow = max(short, len(self.raw_ns))
            self.raw_ns.frombytes(bytes(8 * grow))
            self.cls.frombytes(bytes(grow))

    def normalise(self) -> None:
        factors = host.smooth([reading for _, _, reading in self.slices])
        self.ns = array("d", bytes(8 * self.n))
        self.factor = array("d", bytes(8 * self.n))
        for (start, end, _), factor in zip(self.slices, factors):
            for i in range(start, end):
                self.ns[i] = self.raw_ns[i] / factor
                self.factor[i] = factor

    def cycles(self):
        for start, end in zip([0] + self.cycle_ends, self.cycle_ends):
            yield self.ns[start:end]

    def by_class(self) -> dict:
        groups: dict = defaultdict(list)
        for i in range(self.n):
            groups[CLASSES[self.cls[i]]].append(self.ns[i])
        return groups

    def mean_us(self) -> float:
        return sum(self.ns) / self.n / 1000

    def probe_us(self) -> float:
        return statistics.median(r for _, _, r in self.slices) / 1000


def run_cycle(workload, samples: Samples, checker: Checker, rec=None) -> None:
    """Plan one cycle, run it call by call, then verify its answers."""
    ops = workload.plan_cycle()
    samples.reserve(len(ops))
    raw_ns, cls, n = samples.raw_ns, samples.cls, samples.n
    answers = []
    now = perf_counter_ns
    slice_start = n
    reading = host.probe()
    slice_began = now()
    for cls_id, fn, args, kind, expected in ops:
        if rec is not None:
            rec.op = n
        try:
            t0 = now()
            answer = fn(*args)
            t1 = now()
        except Exception as exc:  # a raising call is a failed call
            t1 = now()
            answer = exc
        raw_ns[n] = t1 - t0
        cls[n] = cls_id
        n += 1
        answers.append(summarize(kind, expected, answer))
        answer = None  # free a big answer now, not inside the next bracket
        if t1 - slice_began >= SLICE_NS:
            after = host.probe()
            samples.slices.append((slice_start, n, (reading + after) / 2))
            slice_start, reading = n, after
            slice_began = now()
    if n > slice_start:
        samples.slices.append(
            (slice_start, n, (reading + host.probe()) / 2)
        )
    samples.n = n
    samples.cycle_ends.append(n)
    for (_, _, _, kind, expected), answer in zip(ops, answers):
        checker.check(kind, expected, answer)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = -(-len(sorted_values) * q // 1)  # ceil
    return float(sorted_values[max(0, int(rank) - 1)])


def delta(after: dict, before: dict) -> dict:
    out = defaultdict(float)
    for name, value in after.items():
        out[name] = value - before.get(name, 0.0)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    # 1. set-up, each bracketed by host-speed readings
    setup_ns = []
    for _ in range(1 if trace else SETUP_REPEATS):
        workload = None  # drop the previous engine before building the next
        gc.collect()
        workload = WORKLOAD_CLASSES[name](seed, scale)
        setup_ns.append(host.timed(workload.setup)[1])

    # 2. the loaded data is not garbage: take it out of the collector's way
    gc.collect()
    gc.freeze()

    # 3. measure; 4. the traced and profiled slices follow the exact
    # window directly, so they too see the same calls on every host
    checker = Checker()
    samples = Samples()
    traced = profiled = None
    facts: dict = {}
    start = layers.collect(workload)
    began = perf_counter_ns()
    while True:
        run_cycle(workload, samples, checker)
        done = len(samples.cycle_ends)
        if done == workload.exact_cycles:
            exact_end = layers.collect(workload)
            exact = delta(exact_end, start)
            exact["space_amp"] = exact_end["disk.bytes"] / exact_end["live_bytes"]
            exact_ops = samples.n
            if trace:
                traced = run_traced(workload, checker)
                profiled = run_profiled(workload, checker)
                facts = workload.exact_facts()
                facts["leaf_fill"] = layers.leaf_fill(workload)
        if done >= workload.exact_cycles and (
            perf_counter_ns() - began >= seconds * 1e9
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples.normalise()

    # 5. finish
    facts.update(workload.finish(checker, trace))

    if trace:
        metrics = per_layer_metrics(
            samples, exact, exact_ops, traced, profiled, facts
        )
        spec = PER_LAYER
    else:
        metrics = end_to_end_metrics(
            samples, exact, exact_ops, setup_ns, peak_rss_mb
        )
        spec = END_TO_END
    print(
        f"{name}: {samples.n} calls in {len(samples.cycle_ends)} cycles "
        f"({exact_ops} in the exact window), host probe "
        f"{samples.probe_us():.0f} us, {checker.attempted} checks",
        file=sys.stderr,
    )
    if checker.first_failure:
        print(f"first failure: {checker.first_failure}", file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in spec
        },
    }


def end_to_end_metrics(samples, exact, exact_ops, setup_ns, peak_rss_mb) -> dict:
    rates, p50s, p99s = [], [], []
    for cycle in samples.cycles():
        ordered = sorted(cycle)
        rates.append(len(cycle) / (sum(cycle) / 1e9))
        p50s.append(percentile(ordered, 0.50) / 1000)
        p99s.append(percentile(ordered, 0.99) / 1000)
    return {
        "setup_s": statistics.median(setup_ns) / 1e9,
        # one stalled cycle cannot move a median over cycles
        "ops_per_s": statistics.median(rates),
        "op_p50_us": statistics.median(p50s),
        "op_p99_us": statistics.median(p99s),
        "sim_us_per_op": exact["sim_ns"] / exact_ops / 1000,
        "space_amp": exact["space_amp"],
        "peak_rss_mb": peak_rss_mb,
    }


# -- the traced and profiled slices -------------------------------------------


def run_traced(workload, checker: Checker) -> dict:
    """Span-traced cycles; the spans are read in :func:`trace_metrics`."""
    samples = Samples()
    rec = spans.Recorder(workload.cycle_len * TRACE_CYCLES * 64)
    noop_shim_ns = spans.calibrate()
    counters = layers.collect(workload)
    patched = spans.install(rec)
    try:
        for _ in range(TRACE_CYCLES):
            run_cycle(workload, samples, checker, rec)
    finally:
        spans.uninstall(patched)
    counters = delta(layers.collect(workload), counters)
    samples.normalise()
    OUT_DIR.mkdir(exist_ok=True)
    spans.write_jsonl(rec, OUT_DIR / f"{workload.name}.spans.jsonl")
    return {
        "rec": rec,
        "samples": samples,
        "noop_shim_ns": noop_shim_ns,
        "descents": counters["btree.descent"],
        "writes": counters["fact.writes"],
    }


def trace_metrics(traced: dict, profiled: dict, untraced_us: float) -> dict:
    """Per-layer self time and the span-derived numbers.

    A shim costs more between real calls than around a no-op (colder
    caches, keyword packing, bracket objects), so the per-span cost is
    taken from this run itself — the traced mean minus the untraced mean,
    over spans per op — but held between 1x and 6x the no-op calibration:
    where calls vary a lot in cost (``analytic_columnar``) the two means
    differ by more than the shims could explain.
    """
    rec, samples = traced["rec"], traced["samples"]
    ops = samples.n
    traced_us = samples.mean_us()
    inside_ns, outside_ns = traced["noop_shim_ns"]
    in_situ_ns = (traced_us - untraced_us) * 1000 * ops / rec.n
    scale = min(6.0, max(1.0, in_situ_ns / (inside_ns + outside_ns)))
    inside_ns *= scale
    outside_ns *= scale
    layer_ns, key_ns, key_count = spans.self_times(
        rec, samples.factor, inside_ns, outside_ns
    )
    self_us = layers.layer_self_us_per_op(layer_ns, profiled["split"], ops)
    out = {f"{layer}.self_us_per_op": us for layer, us in self_us.items()}
    # what the layers must add up to: the traced mean net of the shims
    net_us = traced_us - rec.n * (inside_ns + outside_ns) / ops / 1000
    out["bench.trace.overhead_ratio"] = traced_us / untraced_us
    out["bench.trace.closure_err"] = abs(sum(self_us.values()) - net_us) / net_us
    out["btree.pages_per_descent"] = layers.ratio(
        spans.count_children(
            rec, "btree", {"BufferPool.fetch", "BufferPool.page"}
        ),
        traced["descents"],
    )
    out["shard.merge_us_per_scan"] = layers.ratio(
        key_ns["ShardedTable.scan"], key_count["ShardedTable.scan"]
    ) / 1000
    maint_ns = sum(
        key_ns[f"TableColumnar.note_{verb}"]
        for verb in ("insert", "update", "delete")
    )
    out["columnar.maint_us_per_write"] = (
        layers.ratio(maint_ns, traced["writes"]) / 1000
    )
    return out


def run_profiled(workload, checker: Checker) -> dict:
    """One cProfile pass: calls per op and the leaf-codec time split."""
    samples = Samples()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for _ in range(PROFILE_CYCLES):
            run_cycle(workload, samples, checker)
    finally:
        profiler.disable()
    profile = layers.Profile(profiler)
    return {
        "calls_per_op": profile.calls_per_op(samples.n),
        "events_per_op": profile.instrument_events_per_op(samples.n),
        "split": profile.split(),
    }


#: call class -> the per-layer metric holding its median latency
CLASS_P50 = {
    "lookup_plain": "query.lookup_plain.p50_us",
    "lookup_cached": "query.lookup_cached.p50_us",
    "insert": "query.insert.p50_us",
    "update": "query.update.p50_us",
    "delete": "query.delete.p50_us",
    "scan_row": "query.scan_row.p50_us",
    "aggregate_row": "query.aggregate_row.p50_us",
    "checkpoint": "wal.checkpoint_p50_us",
    "txn_stmt": "txn.statement_p50_us",
    "txn_commit": "txn.commit_p50_us",
    "col_cold": "columnar.cold_query_p50_us",
    "col_cached": "columnar.cached_query_p50_us",
}


def per_layer_metrics(
    samples, exact, exact_ops, traced, profiled, facts
) -> dict:
    out = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    out.update(layers.counter_metrics(exact, exact_ops))
    out.update(trace_metrics(traced, profiled, samples.mean_us()))
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = profiled["calls_per_op"][layer]
    out["obs.instrument_events_per_op"] = profiled["events_per_op"]

    by_class = samples.by_class()
    for cls_name, metric in CLASS_P50.items():
        out[metric] = percentile(sorted(by_class[cls_name]), 0.50) / 1000
    out["shard.rebalance_ms"] = (
        percentile(sorted(by_class["rebalance"]), 0.50) / 1e6
    )
    out["query.op_p999_us"] = percentile(sorted(samples.ns), 0.999) / 1000

    out["btree.leaf_fill"] = facts["leaf_fill"]
    out["shard.straggler_ratio"] = facts.get("straggler_ratio", 0.0)
    out["shard.max_hot_share"] = facts.get("max_hot_share", 0.0)
    out["columnar.encoded_bytes_per_row"] = facts.get(
        "encoded_bytes_per_row", 0.0
    )
    if "recover_s" in facts:
        out["wal.recover_ms"] = facts["recover_s"] * 1000
        out["wal.replay_records_per_s"] = (
            facts["replay_records"] / facts["recover_s"]
        )
    out["bench.host.calib_us"] = samples.probe_us()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_CLASSES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
