"""Tracer: span timing on the simulated clock, nesting, the bracket."""

import gc
import tracemalloc

import pytest

from repro.obs import MetricsRegistry, TraceCollector, Tracer
from repro.sim.cost_model import CostModel, PAPER_PRESET

pytestmark = pytest.mark.obs


def test_span_charges_simulated_time():
    model = CostModel()
    reg = MetricsRegistry()
    tracer = Tracer(reg, clock=model)
    with tracer.span("lookup"):
        model.on_bp_hit()
    hist = reg.histogram("span.lookup.ns")
    assert hist.count == 1
    assert hist.sum == PAPER_PRESET.bp_access_ns


def test_span_accepts_callable_clock():
    ticks = [0.0]
    reg = MetricsRegistry()
    tracer = Tracer(reg, clock=lambda: ticks[0])
    with tracer.span("op"):
        ticks[0] = 42.0
    assert reg.histogram("span.op.ns").sum == 42.0


def test_span_without_clock_counts_zero_elapsed():
    reg = MetricsRegistry()
    tracer = Tracer(reg)
    with tracer.span("op"):
        pass
    hist = reg.histogram("span.op.ns")
    assert hist.count == 1
    assert hist.sum == 0.0


def test_nested_spans_track_depth():
    model = CostModel()
    reg = MetricsRegistry()
    tracer = Tracer(reg, clock=model)
    collector = TraceCollector(clock=model)
    tracer.arm(trace=collector)
    with tracer.span("outer", trace={}):
        model.charge(10.0)
        with tracer.span("inner", trace={}):
            model.charge(5.0)
        model.charge(1.0)
    # inner charged only its own 5 ns; outer saw all 16
    assert reg.histogram("span.inner.ns").sum == 5.0
    assert reg.histogram("span.outer.ns").sum == 16.0
    (trace,) = collector.traces()
    outer, inner = trace.spans
    assert (outer.name, outer.parent_id) == ("outer", None)
    assert (inner.name, inner.parent_id) == ("inner", outer.span_id)
    assert collector.active is None


def test_span_exception_safety():
    model = CostModel()
    reg = MetricsRegistry()
    tracer = Tracer(reg, clock=model)
    collector = TraceCollector(clock=model)
    tracer.arm(trace=collector)
    with pytest.raises(ValueError):
        with tracer.span("fails", trace={}):
            model.charge(7.0)
            raise ValueError("boom")
    # span recorded, error counted, trace closed with the flag
    assert reg.histogram("span.fails.ns").sum == 7.0
    assert reg.counter("span.fails.errors").value == 1
    assert collector.traces()[-1].root.error is True
    assert collector.active is None
    # a successful span afterwards does not bump the error counter
    with tracer.span("fails"):
        pass
    assert reg.counter("span.fails.errors").value == 1


def test_disarmed_bracket_keeps_nothing():
    """With no sink armed the tracer stores no span: 10 000 timed
    brackets leave under 4 KiB behind (a per-span store would keep tens
    of KiB), so ``TraceCollector`` stays the one place spans live."""
    tracer = Tracer(MetricsRegistry(), clock=CostModel())
    with tracer.span("warm"):
        pass
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(10_000):
            with tracer.span("warm"):
                pass
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(
        stat.size_diff for stat in after.compare_to(before, "filename")
    )
    assert retained < 4096, retained


# -- the slotted bracket behaves as ``contextlib.contextmanager`` ------------


def _yields_once():
    yield "entered"


def _never_yields():
    return
    yield  # pragma: no cover - makes this a generator


def _yields_twice():
    yield
    yield


def _swallows_value_error():
    try:
        yield
    except ValueError:
        pass


def _reraises():
    try:
        yield
    except Exception:
        raise


def _converts_to_key_error():
    try:
        yield
    except ValueError:
        raise KeyError("converted")


def _yields_after_throw():
    try:
        yield
    except ValueError:
        yield


def _raises_on_exit():
    yield
    raise KeyError("on exit")


GENERATORS = (
    _yields_once, _never_yields, _yields_twice, _swallows_value_error,
    _reraises, _converts_to_key_error, _yields_after_throw, _raises_on_exit,
)
BODY_ERRORS = (
    None, lambda: ValueError("body"), lambda: StopIteration("body"),
    lambda: RuntimeError("body"), lambda: KeyError("body"),
)


def _slotted(gen_fn):
    from repro.obs.tracer import _Bracket

    bracket = _Bracket()
    bracket.gen = gen_fn()
    return bracket


def _contextlib(gen_fn):
    from contextlib import contextmanager

    return contextmanager(gen_fn)()


def _outcome(make, gen_fn, body_error):
    thrown = body_error() if body_error is not None else None
    try:
        with make(gen_fn) as got:
            if thrown is not None:
                raise thrown
    except BaseException as exc:
        cause = exc.__cause__
        return ("raised", type(exc), str(exc), exc is thrown,
                type(cause), cause is thrown and cause is not None)
    return ("done", got)


@pytest.mark.parametrize("gen_fn", GENERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("body_error", BODY_ERRORS)
def test_span_bracket_matches_contextmanager(gen_fn, body_error):
    """``Tracer.span``'s bracket drives its generator exactly as
    ``contextlib.contextmanager`` does: same value entered, same
    exception (the very object, or a new one with the same cause) out,
    same suppression, for well- and ill-behaved generators alike."""
    assert _outcome(_slotted, gen_fn, body_error) == \
        _outcome(_contextlib, gen_fn, body_error)


def test_span_bracket_exit_without_an_exception_value():
    """``__exit__(typ, None, tb)`` instantiates ``typ`` as contextlib does."""
    for make in (_slotted, _contextlib):
        cm = make(_swallows_value_error)
        cm.__enter__()
        assert cm.__exit__(ValueError, None, None) is True
