"""Benchmark-side span tracing: shims around layer entry points.

``LAYER_ENTRYPOINTS`` names the public methods where a call crosses from
one layer (= module) into another a handful of times per op.  For the
traced phase each is replaced, on its class, by a shim that records
``(op, parent span, key, t0_ns, t1_ns)`` into a preallocated list; the
originals are put back afterwards, so the engine never learns it was
traced.  A call that stays inside the layer it came from (``pool.page``
calling ``pool.fetch``) is not a boundary and records nothing.

Generator entry points get one span per resume, and entry points that
return a context manager get one span for ``__enter__`` and one for
``__exit__`` — otherwise a lazy scan or a ``with pool.page(...)`` would
charge its work to whoever consumes it.

Self time of a span is its duration minus its children's, minus the
shim's own cost as calibrated on a no-op (:func:`calibrate`).
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

#: (module, class, methods, layer).  Leaf codecs — ``storage.page``,
#: ``schema.record``, ``btree.node/keycodec`` — and the one-line hooks
#: every layer calls — registry counters, ``CostModel.on_*`` — run dozens
#: of times per op for a fraction of a microsecond each; a shim costs more
#: than they do, so their share comes from the profile pass instead
#: (``bench.layers.EMBEDDED_FILES``).
LAYER_ENTRYPOINTS = (
    ("repro.query.table", "Table",
     ("insert", "update", "delete", "lookup", "lookup_many", "scan",
      "aggregate", "_scan_rows"), "query"),
    ("repro.query.table", "PlainIndex",
     ("lookup", "lookup_many", "find_rid", "insert_key", "delete_key"),
     "query"),
    ("repro.query.database", "Database", ("checkpoint",), "query"),
    ("repro.txn.manager", "Session",
     ("begin", "commit", "abort", "lookup", "scan", "insert", "update",
      "delete"), "txn"),
    ("repro.shard.database", "ShardedTable",
     ("insert", "update", "delete", "lookup", "lookup_many", "scan",
      "aggregate"), "shard"),
    ("repro.shard.database", "ShardedDatabase", ("rebalance",), "shard"),
    ("repro.shard.router", "ShardRouter",
     ("shard_of", "record_access", "plan_rebalance", "apply_move",
      "advance_epoch"), "shard"),
    ("repro.core.index_cache.cached_index", "CachedBTree",
     ("lookup", "lookup_many", "insert_key", "delete_key", "note_update"),
     "index_cache"),
    ("repro.core.index_cache.cache", "IndexCache", ("probe", "insert"),
     "index_cache"),
    ("repro.btree.tree", "BPlusTree",
     ("search", "find_leaf", "insert", "delete", "lookup_many",
      "range_batch", "range_scan"), "btree"),
    ("repro.storage.heap", "HeapFile",
     ("fetch", "fetch_many", "insert", "update", "delete", "scan"),
     "storage.heap"),
    ("repro.storage.buffer_pool", "BufferPool",
     ("fetch", "fetch_many", "page", "pages_many", "unpin", "new_page",
      "flush", "flush_all", "dirty_rec_lsns"), "storage.pool"),
    ("repro.storage.disk", "SimulatedDisk",
     ("read_page", "write_page", "allocate_page"), "storage.disk"),
    ("repro.wal.log", "WalWriter",
     ("reserve_lsn", "log_insert", "log_update", "log_delete",
      "log_txn_begin", "log_txn_commit", "log_txn_abort",
      "log_shard_migrate", "flush", "flush_to", "checkpoint"), "wal"),
    ("repro.columnar.manager", "TableColumnar",
     ("plan_scan", "scan", "aggregate", "note_insert", "note_update",
      "note_delete"), "columnar"),
    ("repro.obs.tracer", "Tracer", ("span",), "obs"),
)

_END = object()


class Recorder:
    """The in-memory span buffer and the 'where are we' cursor."""

    __slots__ = ("spans", "n", "cap", "cur", "layer", "op", "keys")

    def __init__(self, capacity: int) -> None:
        self.spans: list = [None] * capacity
        self.cap = capacity
        self.n = 0
        self.cur = -1       # id of the open span, -1 outside any
        self.layer = None   # its layer
        self.op = 0         # index of the op being run
        self.keys: list[tuple[str, str]] = []  # key id -> (layer, fn)

    def grow(self) -> None:
        self.spans.extend([None] * self.cap)
        self.cap *= 2

    def recorded(self) -> list:
        return self.spans[: self.n]


def _call_shim(rec: Recorder, key: int, layer: str, orig):
    now = perf_counter_ns

    def shim(*args, **kwargs):
        if rec.layer is layer:
            return orig(*args, **kwargs)
        i = rec.n
        if i >= rec.cap:
            rec.grow()
        rec.n = i + 1
        parent, outer = rec.cur, rec.layer
        rec.cur, rec.layer = i, layer
        t0 = now()
        try:
            return orig(*args, **kwargs)
        finally:
            t1 = now()
            rec.cur, rec.layer = parent, outer
            rec.spans[i] = (rec.op, parent, key, t0, t1)

    return shim


def _generator_shim(rec: Recorder, key: int, layer: str, orig):
    step = _call_shim(rec, key, layer, next)

    def shim(*args, **kwargs):
        it = orig(*args, **kwargs)
        try:
            while True:
                item = step(it, _END)
                if item is _END:
                    return
                yield item
        finally:
            it.close()

    return shim


def _context_manager_shim(rec: Recorder, key: int, layer: str, orig):
    rec.keys.append((layer, rec.keys[key][1] + ":exit"))
    exit_key = len(rec.keys) - 1
    enter = _call_shim(rec, key, layer, lambda cm: cm.__enter__())
    leave = _call_shim(
        rec, exit_key, layer, lambda cm, *exc: cm.__exit__(*exc)
    )

    class Bracket:
        __slots__ = ("cm",)

        def __init__(self, cm) -> None:
            self.cm = cm

        def __enter__(self):
            return enter(self.cm)

        def __exit__(self, *exc):
            return leave(self.cm, *exc)

    def shim(*args, **kwargs):
        return Bracket(orig(*args, **kwargs))

    return shim


def _shim_for(rec: Recorder, key: int, layer: str, orig):
    if inspect.isgeneratorfunction(orig):
        return _generator_shim(rec, key, layer, orig)
    if inspect.isgeneratorfunction(getattr(orig, "__wrapped__", None)):
        return _context_manager_shim(rec, key, layer, orig)  # @contextmanager
    return _call_shim(rec, key, layer, orig)


def install(rec: Recorder) -> list:
    """Patch every entry point; returns what :func:`uninstall` needs."""
    patched = []
    for module, cls_name, methods, layer in LAYER_ENTRYPOINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        layer = _intern_layer(layer)
        for name in methods:
            orig = cls.__dict__[name]
            rec.keys.append((layer, f"{cls_name}.{name}"))
            setattr(cls, name, _shim_for(rec, len(rec.keys) - 1, layer, orig))
            patched.append((cls, name, orig))
    return patched


def uninstall(patched: list) -> None:
    for cls, name, orig in patched:
        setattr(cls, name, orig)


_LAYERS: dict[str, str] = {}


def _intern_layer(layer: str) -> str:
    """One string object per layer, so shims compare with ``is``."""
    return _LAYERS.setdefault(layer, layer)


def calibrate(n: int = 20_000) -> tuple[float, float]:
    """``(inside_ns, outside_ns)``: what one shim adds to its own span's
    duration and to its parent's self time, measured on a no-op."""
    def noop():
        return None

    rec = Recorder(n + 1)
    inner = _call_shim(rec, 0, _intern_layer("calib.inner"), noop)

    def body():
        for _ in range(n):
            inner()

    def bare():
        for _ in range(n):
            noop()

    outer = _call_shim(rec, 1, _intern_layer("calib.outer"), body)
    best_in = best_out = float("inf")
    for _ in range(5):
        rec.n = 0
        t0 = perf_counter_ns()
        bare()
        bare_ns = perf_counter_ns() - t0
        outer()
        spans = rec.recorded()
        _, _, _, o0, o1 = spans[0]
        inside = sum(t1 - t0 for _, _, _, t0, t1 in spans[1:])
        best_in = min(best_in, inside / n)
        best_out = min(best_out, ((o1 - o0) - inside - bare_ns) / n)
    return best_in, max(0.0, best_out)


def self_times(rec: Recorder, factor, inside_ns: float, outside_ns: float):
    """Per-layer and per-key self time (ns) and per-key span counts.

    ``factor[op]`` is the host-speed factor the op ran under; durations
    are divided by it, so the result reads like every other reported time.
    """
    spans = rec.recorded()
    child_ns = [0.0] * len(spans)
    children = [0] * len(spans)
    for op, parent, _, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += (t1 - t0) / factor[op]
            children[parent] += 1
    layer_ns: dict[str, float] = defaultdict(float)
    key_ns: dict[str, float] = defaultdict(float)
    key_count: dict[str, int] = defaultdict(int)
    for i, (op, _, key, t0, t1) in enumerate(spans):
        layer, fn = rec.keys[key]
        own = ((t1 - t0) / factor[op] - child_ns[i]
               - children[i] * outside_ns - inside_ns)
        layer_ns[layer] += own
        key_ns[fn] += own
        key_count[fn] += 1
    return layer_ns, key_ns, key_count


def count_children(rec: Recorder, parent_layer: str, child_fns: set) -> int:
    """Spans of ``child_fns`` opened directly under a ``parent_layer`` span."""
    spans = rec.recorded()
    total = 0
    for _, parent, key, _, _ in spans:
        if parent >= 0 and rec.keys[key][1] in child_fns:
            if rec.keys[spans[parent][2]][0] == parent_layer:
                total += 1
    return total


def write_jsonl(rec: Recorder, path) -> None:
    """One span per line: op, span id, parent id, layer, fn, t0_ns, t1_ns."""
    with open(path, "w") as out:
        for i, (op, parent, key, t0, t1) in enumerate(rec.recorded()):
            layer, fn = rec.keys[key]
            out.write(json.dumps([op, i, parent, layer, fn, t0, t1]) + "\n")
