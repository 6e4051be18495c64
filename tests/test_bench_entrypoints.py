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

from bench.spans import LAYER_ENTRYPOINTS
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
