"""TelemetrySampler: windowed deltas, counter-reset handling, ring
wrap-around, degenerate windows, and the selector grammar."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry
from repro.obs.sampler import TelemetrySampler, select

pytestmark = pytest.mark.obs


def _sampler(registry, **kwargs):
    clock = {"t": 0.0}
    sampler = TelemetrySampler(
        registry, clock=lambda: clock["t"], **kwargs
    )
    return sampler, clock


# -- windowed deltas --------------------------------------------------------


def test_first_sample_is_baseline_without_rates():
    reg = MetricsRegistry()
    reg.counter("a.events").inc(10)
    reg.gauge("a.level").set(3)
    sampler, _clock = _sampler(reg)
    point = sampler.sample()
    assert point.rates == {}  # no window yet
    assert point.gauges == {"a.level": 3}
    assert point.dt_ns == 0.0


def test_rates_are_window_deltas_per_second():
    reg = MetricsRegistry()
    counter = reg.counter("a.events")
    counter.inc(10)
    sampler, clock = _sampler(reg)
    sampler.sample()
    counter.inc(5)
    clock["t"] = 2e9  # 2 simulated seconds later
    point = sampler.sample()
    assert point.rates == {"a.events": 2.5}  # 5 events / 2 s, not 15


def test_counter_reset_mid_window_yields_post_reset_delta():
    """``registry.reset()`` shrinks values; the sampler must not emit a
    negative rate — the post-reset value is the window's delta."""
    reg = MetricsRegistry()
    counter = reg.counter("a.events")
    counter.inc(100)
    sampler, clock = _sampler(reg)
    sampler.sample()
    reg.reset()
    counter.inc(7)
    clock["t"] = 1e9
    point = sampler.sample()
    assert point.rates == {"a.events": 7.0}
    # The baseline advanced too: the next window is a plain delta again.
    counter.inc(3)
    clock["t"] = 2e9
    assert sampler.sample().rates == {"a.events": 3.0}


def test_histogram_percentiles_are_windowed():
    reg = MetricsRegistry()
    hist = reg.histogram("a.lat")
    for v in (2, 2, 2):
        hist.record(v)
    sampler, clock = _sampler(reg)
    sampler.sample()
    for v in (100, 100, 100):
        hist.record(v)
    clock["t"] = 1e9
    point = sampler.sample()
    # Only the window's recordings count: all three were ~100, so the
    # old cluster of 2s must not drag p50 down.
    assert point.percentiles["a.lat"]["p50"] >= 100
    # Quiet window -> histogram drops out entirely.
    clock["t"] = 2e9
    assert "a.lat" not in sampler.sample().percentiles


def test_histogram_reset_mid_window_recovers():
    reg = MetricsRegistry()
    hist = reg.histogram("a.lat")
    hist.record(50)
    sampler, clock = _sampler(reg)
    sampler.sample()
    hist.reset()
    hist.record(3)
    clock["t"] = 1e9
    point = sampler.sample()
    assert point.percentiles["a.lat"]["p99"] <= 4  # post-reset window only


def test_derived_hit_rate_is_windowed():
    reg = MetricsRegistry()
    hit, miss = reg.counter("c.hit"), reg.counter("c.miss")
    hit.inc(90)
    miss.inc(10)  # lifetime rate would be 0.9
    sampler, clock = _sampler(reg)
    sampler.sample()
    hit.inc(1)
    miss.inc(3)  # this window is 0.25
    clock["t"] = 1e9
    point = sampler.sample()
    assert point.derived == {"c.hit_rate": 0.25}


# -- degenerate windows -----------------------------------------------------


def test_zero_duration_window_yields_no_rates_but_advances_baseline():
    reg = MetricsRegistry()
    counter = reg.counter("a.events")
    sampler, clock = _sampler(reg)
    sampler.sample()
    counter.inc(4)
    point = sampler.sample()  # same logical instant
    assert point.dt_ns == 0.0
    assert point.rates == {} and point.derived == {}
    counter.inc(6)
    clock["t"] = 1e9
    # Only the 6 post-degenerate events count: the baseline advanced.
    assert sampler.sample().rates == {"a.events": 6.0}


def test_backwards_clock_is_a_degenerate_window():
    reg = MetricsRegistry()
    reg.counter("a.events").inc(1)
    sampler, clock = _sampler(reg)
    clock["t"] = 5e9
    sampler.sample()
    clock["t"] = 1e9  # e.g. a crash restart swapped the cost model
    point = sampler.sample()
    assert point.dt_ns < 0 and point.rates == {}


# -- ring bounds ------------------------------------------------------------


def test_ring_wraps_and_keeps_newest():
    reg = MetricsRegistry()
    counter = reg.counter("a.events")
    sampler, clock = _sampler(reg, capacity=3)
    for i in range(7):
        counter.inc(1)
        clock["t"] = (i + 1) * 1e9
        sampler.sample()
    assert len(sampler) == 3
    assert sampler.samples_taken == 7
    assert [p.seq for p in sampler.points] == [4, 5, 6]
    assert sampler.last().seq == 6
    # Deltas stay per-window across the wrap: one event per second.
    assert all(p.rates == {"a.events": 1.0} for p in sampler.points)


def test_sampler_is_read_only():
    reg = MetricsRegistry()
    reg.counter("a.events").inc()
    sampler, _clock = _sampler(reg)
    sampler.sample()
    assert set(reg.names()) == {"a.events"}  # nothing installed


def test_constructor_validation():
    with pytest.raises(ObservabilityError):
        TelemetrySampler(MetricsRegistry(), capacity=0)


# -- selectors --------------------------------------------------------------


def _point():
    reg = MetricsRegistry()
    reg.counter("c.hit").inc(3)
    reg.counter("c.miss").inc(1)
    reg.gauge("g.level").set(7)
    reg.histogram("h.lat").record(32)
    sampler, clock = _sampler(reg)
    sampler.sample()
    reg.counter("c.hit").inc(3)
    reg.counter("c.miss").inc(1)
    reg.histogram("h.lat").record(32)
    clock["t"] = 1e9
    return sampler.sample(), sampler


def test_select_grammar():
    point, _sampler_obj = _point()
    assert select(point, "rate.c.hit") == 3.0
    assert select(point, "gauge.g.level") == 7
    assert select(point, "derived.c.hit_rate") == 0.75
    assert select(point, "p50.h.lat") == 32
    assert select(point, "ratio:rate.c.hit/rate.c.miss") == 3.0
    assert select(point, "rate.nope") is None
    assert select(point, "p95.nope") is None
    assert select(point, "ratio:rate.c.hit/rate.nope") is None  # guarded
    with pytest.raises(ObservabilityError):
        select(point, "bogus.c.hit")
    with pytest.raises(ObservabilityError):
        select(point, "rate")
    with pytest.raises(ObservabilityError):
        select(point, "ratio:rate.c.hit")  # no '/'
    with pytest.raises(ObservabilityError):
        select(point, "rate:c.hit")  # the kind ends at a '.', never a ':'


def test_series_and_selectors_listing():
    point, sampler = _point()
    assert sampler.series("rate.c.hit") == [(point.t_ns, 3.0)]
    assert sampler.series("rate.nope") == []


def test_as_dict_round_trips_through_json():
    import json

    _point_obj, sampler = _point()
    doc = json.loads(json.dumps(sampler.as_dict()))
    assert doc["samples_taken"] == 2
    assert doc["points"][-1]["derived"] == {"c.hit_rate": 0.75}
