"""Tracer: span timing on the simulated clock, nesting, ring buffer."""

import pytest

from repro.obs import MetricsRegistry, Tracer
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
    assert tracer.depth == 0
    with tracer.span("outer"):
        assert tracer.depth == 1
        model.charge(10.0)
        with tracer.span("inner"):
            assert tracer.depth == 2
            model.charge(5.0)
        model.charge(1.0)
    assert tracer.depth == 0
    # inner charged only its own 5 ns; outer saw all 16
    assert reg.histogram("span.inner.ns").sum == 5.0
    assert reg.histogram("span.outer.ns").sum == 16.0
    inner, outer = tracer.recent()
    assert (inner.name, inner.depth) == ("inner", 1)
    assert (outer.name, outer.depth) == ("outer", 0)


def test_span_exception_safety():
    model = CostModel()
    reg = MetricsRegistry()
    tracer = Tracer(reg, clock=model)
    with pytest.raises(ValueError):
        with tracer.span("fails"):
            model.charge(7.0)
            raise ValueError("boom")
    # depth unwound, span recorded, error counted
    assert tracer.depth == 0
    assert reg.histogram("span.fails.ns").sum == 7.0
    assert reg.counter("span.fails.errors").value == 1
    (event,) = tracer.recent()
    assert event.error is True
    # a successful span afterwards does not bump the error counter
    with tracer.span("fails"):
        pass
    assert reg.counter("span.fails.errors").value == 1


def test_ring_buffer_bounded_oldest_first():
    reg = MetricsRegistry()
    tracer = Tracer(reg, ring_size=3)
    for i in range(5):
        with tracer.span("op", i=i):
            pass
    events = tracer.recent()
    assert len(events) == 3
    assert [dict(e.attrs)["i"] for e in events] == [2, 3, 4]
    assert [dict(e.attrs)["i"] for e in tracer.recent(2)] == [3, 4]
    tracer.clear()
    assert tracer.recent() == []


def test_span_attrs_recorded():
    reg = MetricsRegistry()
    tracer = Tracer(reg)
    with tracer.span("query.lookup", table="users", index="pk"):
        pass
    (event,) = tracer.recent()
    assert dict(event.attrs) == {"table": "users", "index": "pk"}


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
