"""Tier-1 guard for the benchmark's patch table.

``bench.spans.install`` replaces every method named in
``LAYER_ENTRYPOINTS`` on its class via ``cls.__dict__[name]``, so a
rename or a move to a base class under ``src/`` makes
``python -m bench --trace 1`` die with ``KeyError`` — and ``bench/tests``
is not tier-1.  This fails in a fraction of a second instead.  Read-only
use of ``bench/``.
"""

import importlib
import inspect

from bench import spans
from bench.spans import LAYER_ENTRYPOINTS
from repro import Database, Schema, UINT32, UINT64
from repro.obs.tracer import Tracer


def test_every_layer_entrypoint_is_defined_on_its_class():
    missing = []
    for module, cls_name, methods, _layer in LAYER_ENTRYPOINTS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        for name in methods:
            if cls is None or name not in cls.__dict__:
                missing.append(f"{module}.{cls_name}.{name}")
    assert not missing


def test_tracer_span_is_a_generator_context_manager():
    """``bench.spans._shim_for`` recognises ``@contextmanager`` methods by
    ``__wrapped__`` being a generator function and then times
    ``__enter__`` and ``__exit__`` as ``obs``; any other shape would be
    wrapped as a plain call and the bracket's work would silently move
    to ``query.self_us_per_op``."""
    assert inspect.isgeneratorfunction(Tracer.span.__wrapped__)


def test_benchmark_reads_one_page_span_per_pin_under_btree():
    """``btree.pages_per_descent`` is the count of ``BufferPool.fetch`` +
    ``BufferPool.page`` spans directly under a ``btree`` span.  The pin is
    taken inside the ``page()`` call, so each bracket is exactly one such
    span; a bracket shape the shims see differently (a generator, or a
    handle whose ``__enter__`` does the fetch) would silently change that
    number in ``python3 -m bench --trace 1`` with not one pin added."""
    db = Database(page_size=512)
    table = db.create_table("t", Schema.of(("id", UINT64), ("v", UINT32)))
    db.create_index("t", "pk", ("id",))
    for i in range(200):
        table.insert({"id": i, "v": i * i})
    assert table.index("pk").tree.height == 2
    rec = spans.Recorder(64)
    patched = spans.install(rec)
    try:
        assert table.lookup("pk", 137).values["v"] == 137 * 137
    finally:
        spans.uninstall(patched)
    pins = {"BufferPool.fetch", "BufferPool.page"}
    # root, leaf in find_leaf, leaf again in search
    assert spans.count_children(rec, "btree", pins) == 3
    assert spans.count_children(rec, "btree", {"BufferPool.fetch"}) == 0
    assert spans.count_children(rec, "storage.heap", pins) == 1
    assert inspect.isgeneratorfunction(Tracer.span.__wrapped__)


def test_page_and_record_codecs_live_where_the_benchmark_charges_them():
    """``bench.layers`` attributes profiled time by source file:
    ``repro/storage/page.py`` is ``storage.page`` and ``repro/schema/`` is
    ``schema``, both embedded in their callers' spans.  Moving the page
    search or the record codec elsewhere would silently re-attribute
    their time (to ``btree``, ``query`` ...) with every number still
    closing."""
    from bench.layers import EMBEDDED_FILES, _file_layer
    from repro.schema import record
    from repro.schema.schema import Schema
    from repro.schema.types import PhysicalType
    from repro.storage.page import SlottedPage

    def charged(fn) -> tuple[str, bool]:
        filename = fn.__code__.co_filename
        return _file_layer(filename), any(f in filename for f in EMBEDDED_FILES)

    for fn in (SlottedPage.bisect, SlottedPage.read, SlottedPage._slot_entry):
        assert charged(fn) == ("storage.page", True), fn
    for fn in (record.pack_record, record.pack_record_map, record.unpack_record,
               record.unpack_record_map, record.unpack_fields,
               Schema.codec.func, PhysicalType.wire):
        assert charged(fn) == ("schema", True), fn


def test_every_workload_runs_one_cycle_through_the_harness():
    """The harness reads engine attributes by name (``db.cost_model``,
    ``db.disk.reads``, ``table.index_names``, ``index.stats`` ...) and the
    workloads drive the public API, so a rename under ``src/`` passes every
    engine test and only crashes ``python3 -m bench``.  One small cycle of
    each workload through every step the worker takes catches it."""
    from bench import layers
    from bench.oracle import Checker
    from bench.worker import WORKLOAD_CLASSES, Samples, run_cycle

    for name, cls in WORKLOAD_CLASSES.items():
        workload = cls(0, 0.05)
        workload.setup()
        checker = Checker()
        run_cycle(workload, Samples(), checker)
        counters = layers.collect(workload)
        assert counters["disk.bytes"] > 0 and counters["live_bytes"] > 0, name
        assert 0 < layers.leaf_fill(workload) <= 1, name
        workload.finish(Checker(), False)
        assert checker.attempted > 0 and checker.failed == 0, (
            name, checker.first_failure)
