"""Per-layer numbers from outside the engine: counters and the profile.

Counts come from public counters (``db.metrics.snapshot()``,
``disk.reads/writes/size_bytes``, ``WalDevice.size``, index
``heap_fetches``) read before and after a fixed number of calls, so they
repeat exactly.  Call counts — and the share of each span's time that
belongs to a leaf codec too hot to wrap — come from one ``cProfile`` pass
aggregated by source file.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from fractions import Fraction

from bench.metrics import LAYERS

# -- counters ---------------------------------------------------------------


def _flatten(tree: dict, prefix: str, out: dict) -> None:
    for name, value in tree.items():
        if isinstance(value, dict):
            if name != "buckets":
                _flatten(value, f"{prefix}{name}.", out)
        elif name not in ("min", "max", "mean"):
            out[prefix + name] += value


def collect(workload) -> dict:
    """Cumulative raw counters, summed over the workload's engines."""
    out: dict = defaultdict(float)
    for db in workload.engines():
        _flatten(db.metrics.snapshot(), "", out)
        out["disk.reads"] += db.disk.reads
        out["disk.writes"] += db.disk.writes
        out["disk.bytes"] += db.disk.size_bytes
        out["disk.io_bytes"] += (db.disk.reads + db.disk.writes) * db.disk.page_size
        if db.wal is not None:
            out["wal.device_bytes"] += db.wal.device.size
    parent = workload.parent_registry()
    if parent is not None:
        _flatten(parent.snapshot(), "", out)
    for table in workload.tables():
        out["live_bytes"] += table.num_rows * table.schema.record_size
        for name in table.index_names:
            index = table.index(name)
            stats = getattr(index, "stats", index)  # CachedBTree keeps .stats
            out["heap_fetches"] += stats.heap_fetches
    out["sim_ns"] = workload.sim_now_ns()
    for name, value in workload.facts().items():
        out["fact." + name] = value
    return out


def leaf_fill(workload) -> float:
    """Mean B+Tree leaf fill over every index (walks the leaves through
    the pool, so only call it once the counters have been read)."""
    fills = [
        table.index(name).tree.leaf_fill_factor()
        for table in workload.tables() for name in table.index_names
    ]
    return sum(fills) / len(fills)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(d: dict, ops: int) -> dict:
    """Per-layer counts from a counter delta over ``ops`` calls."""
    kops = ops / 1000
    pool_reads = d["bufferpool.hit"] + d["bufferpool.miss"]
    splits = d["btree.split.leaf"] + d["btree.split.internal"]
    return {
        "storage.disk.reads_per_op": d["disk.reads"] / ops,
        "storage.disk.writes_per_op": d["disk.writes"] / ops,
        "storage.disk.device_bytes_per_op":
            (d["disk.io_bytes"] + d["wal.device_bytes"]) / ops,
        "storage.pool.hit_rate": ratio(d["bufferpool.hit"], pool_reads),
        "storage.pool.evictions_per_op": d["bufferpool.eviction"] / ops,
        "storage.pool.writebacks_per_op": d["bufferpool.writeback"] / ops,
        "storage.heap.fetches_per_op": d["heap_fetches"] / ops,
        "btree.descents_per_op": d["btree.descent"] / ops,
        "btree.splits_per_kop": splits / kops,
        "index_cache.answer_rate":
            ratio(d["index_cache.hit"], d["index_cache.lookup"]),
        "index_cache.probes_per_op": d["index_cache.swap.probes"] / ops,
        "index_cache.fills_per_kop": d["index_cache.fill"] / kops,
        "index_cache.invalidations_per_kop":
            (d["index_cache.invalidation.pages_zeroed"]
             + d["index_cache.invalidation.predicates"]) / kops,
        "query.rows_examined_per_row":
            ratio(d["fact.examined"], d["fact.returned"]),
        "wal.bytes_per_write": ratio(d["wal.device_bytes"], d["fact.writes"]),
        "wal.flushes_per_kop": d["wal.flushes"] / kops,
        "wal.batch_records_mean":
            ratio(d["wal.group_commit.batch_records.sum"],
                   d["wal.group_commit.batch_records.count"]),
        "txn.conflict_frac":
            ratio(d["fact.conflicts"], d["fact.session_stmts"]),
        "columnar.fragment_hit_rate":
            ratio(d["columnar.cache.hits"],
                   d["columnar.cache.hits"] + d["columnar.cache.misses"]),
        "columnar.rebuilds": d["columnar.rebuilds"],
        "shard.fanout_mean":
            ratio(d["shard.fanout.shards.sum"], d["shard.fanout.shards.count"]),
        "shard.keys_moved": d["shard.rebalance.keys_moved"],
    }


# -- the profile pass ---------------------------------------------------------

#: Source path fragment -> layer, first match wins.  Files that match
#: nothing (stdlib, ``repro.util``, built-ins) are charged to whoever
#: calls them.
FILE_LAYERS = (
    ("repro/storage/disk.py", "storage.disk"),
    ("repro/faults/disk.py", "storage.disk"),
    ("repro/storage/buffer_pool.py", "storage.pool"),
    ("repro/storage/retry.py", "storage.pool"),
    ("repro/storage/page.py", "storage.page"),
    ("repro/storage/constants.py", "storage.page"),
    ("repro/storage/", "storage.heap"),
    ("repro/btree/", "btree"),
    ("repro/core/index_cache/", "index_cache"),
    ("repro/schema/", "schema"),
    ("repro/query/", "query"),
    ("repro/wal/", "wal"),
    ("repro/txn/", "txn"),
    ("repro/columnar/", "columnar"),
    ("repro/core/encoding/", "columnar"),
    ("repro/shard/", "shard"),
    ("repro/core/hot_cold/", "shard"),
    ("repro/obs/", "obs"),
    ("repro/sim/", "sim"),
    ("bench/", "bench"),
)

#: Code that runs *inside* other layers' spans because it is too hot and
#: too small to wrap: the page and record codecs, the registry instruments
#: every layer increments, and the cost-model hooks.
EMBEDDED_FILES = (
    "repro/storage/page.py", "repro/storage/constants.py", "repro/schema/",
    "repro/obs/registry.py", "repro/sim/",
)

#: Registry methods that are one instrument event each.
INSTRUMENT_EVENTS = {"inc", "add", "set", "record"}


def _file_layer(filename: str) -> str | None:
    for fragment, layer in FILE_LAYERS:
        if fragment in filename:
            return layer
    return None


class Profile:
    """A finished ``cProfile`` run, read layer by layer."""

    def __init__(self, profiler) -> None:
        self.stats = pstats.Stats(profiler).stats
        self._memo: dict = {}

    def where(self, func) -> dict:
        """``{(span layer, code layer): weight}`` for one profiled function.

        Code in a layer with wrapped entry points runs in that layer's
        spans.  Embedded code keeps its own layer but runs in its
        callers' spans; unmapped code (stdlib, built-ins) is its callers'
        in both senses.  Callers are weighted by call count, in exact
        fractions: the profiler lists functions in address order, and
        float sums would differ in the last digit from run to run.
        """
        got = self._memo.get(func)
        if got is not None:
            return got
        filename = func[0]
        layer = _file_layer(filename)
        embedded = any(fragment in filename for fragment in EMBEDDED_FILES)
        if layer is not None and not embedded:
            self._memo[func] = {(layer, layer): Fraction(1)}
            return self._memo[func]
        # breaks cycles: a recursive caller adds nothing (functions are
        # visited in sorted order, so which one that is never varies)
        self._memo[func] = {}
        mix: dict = defaultdict(Fraction)
        callers = self.stats[func][4]
        total = sum(edge[0] for edge in callers.values())
        for caller, edge in sorted(callers.items()):
            if caller in self.stats:
                share = Fraction(edge[0], total)
                for (span, code), w in self.where(caller).items():
                    mix[span, layer if embedded else code] += w * share
        self._memo[func] = dict(mix)
        return self._memo[func]

    def calls_per_op(self, ops: int) -> dict:
        """Python + built-in calls per op, by the layer whose code ran."""
        calls: dict = defaultdict(Fraction)
        for func, (_cc, nc, _tt, _ct, _callers) in sorted(self.stats.items()):
            for (_span, code), w in self.where(func).items():
                calls[code] += nc * w
        return {layer: float(calls[layer] / ops) for layer in LAYERS}

    def instrument_events_per_op(self, ops: int) -> float:
        events = sum(
            nc for (filename, _line, name), (_cc, nc, *_rest)
            in self.stats.items()
            if "repro/obs/registry.py" in filename and name in INSTRUMENT_EVENTS
        )
        return events / ops

    def split(self) -> dict:
        """``{span layer: {code layer: share}}`` of profiled self time —
        how a span layer's measured self time divides between its own
        code and the embedded layers it calls."""
        matrix: dict = defaultdict(lambda: defaultdict(float))
        for func, (_cc, _nc, tt, _ct, _callers) in sorted(self.stats.items()):
            for (span, code), w in self.where(func).items():
                matrix[span][code] += tt * float(w)
        shares = {}
        for span, row in matrix.items():
            total = sum(row.values())
            if total > 0:
                shares[span] = {code: v / total for code, v in row.items()}
        return shares


def layer_self_us_per_op(span_ns: dict, split: dict, ops: int) -> dict:
    """Span self time re-attributed to the code that spent it."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span_layer, ns in span_ns.items():
        shares = split.get(span_layer) or {span_layer: 1.0}
        for code_layer, share in shares.items():
            # driver frames seen by the profiler stay with the span's layer
            target = code_layer if code_layer in out else span_layer
            out[target] += ns * share / ops / 1000
    return out
