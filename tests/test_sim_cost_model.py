"""CostModel: charging, the clock, and the Fig-2c calibration facts."""

import pytest

from repro.sim.cost_model import (
    CostModel,
    CostPreset,
    END_TO_END_PRESET,
    PAPER_PRESET,
)


def test_clock_starts_at_zero():
    model = CostModel()
    assert model.now_ns == 0.0


def test_event_charges():
    p = PAPER_PRESET
    model = CostModel()
    model.on_bp_hit()
    assert model.now_ns == p.bp_access_ns
    model.on_bp_miss()
    assert model.now_ns == 2 * p.bp_access_ns + p.disk_read_ns
    for charge, ns in (
        (model.on_cache_probe, p.cache_probe_ns),
        (model.on_index_descent, p.index_descent_ns),
        (model.on_disk_write, p.disk_write_ns),
    ):
        before = model.now_ns
        charge()
        assert model.now_ns - before == ns


def test_reset():
    model = CostModel()
    model.on_bp_hit()
    model.reset()
    assert model.now_ns == 0.0
    model.on_bp_hit()  # charges resume from zero
    assert model.now_ns == PAPER_PRESET.bp_access_ns


def test_charge_arbitrary():
    model = CostModel()
    model.charge(123.0)
    assert model.now_ns == 123.0


def test_query_overhead_preset():
    model = CostModel(END_TO_END_PRESET)
    model.on_query()
    assert model.now_ns == END_TO_END_PRESET.query_overhead_ns
    assert CostModel(PAPER_PRESET).preset.query_overhead_ns == 0.0


def test_calibration_overhead_is_point3_us():
    """Fig 2c: the probe overhead at 0% hit rate is ~0.3 us."""
    model = CostModel()
    cached = model.expected_lookup_ns(0.0, 1.0)
    nocache = model.expected_lookup_ns(0.0, 1.0, cached=False)
    assert (cached - nocache) == pytest.approx(300.0)


def test_calibration_crossover_near_35pct():
    model = CostModel()
    nocache = model.expected_lookup_ns(0.0, 1.0, cached=False)
    assert model.expected_lookup_ns(0.34, 1.0) > nocache
    assert model.expected_lookup_ns(0.36, 1.0) < nocache


def test_calibration_speedup_2_7x_at_full_hit():
    model = CostModel()
    nocache = model.expected_lookup_ns(0.0, 1.0, cached=False)
    cached = model.expected_lookup_ns(1.0, 1.0)
    assert nocache / cached == pytest.approx(2.7, abs=0.05)


def test_expected_cost_monotone_in_hit_rates():
    model = CostModel()
    assert model.expected_lookup_ns(0.5, 0.5) < model.expected_lookup_ns(0.4, 0.5)
    assert model.expected_lookup_ns(0.5, 0.6) < model.expected_lookup_ns(0.5, 0.5)


def test_custom_preset():
    preset = CostPreset(bp_access_ns=10.0, disk_read_ns=100.0)
    model = CostModel(preset)
    model.on_bp_miss()
    assert model.now_ns == 110.0
    assert preset.index_descent_ns + preset.bp_access_ns == preset.index_descent_ns + 10.0
