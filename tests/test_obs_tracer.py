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
