"""StreamingStats."""

import math

from hypothesis import given, strategies as st

from repro.util.stats import StreamingStats


def test_empty_stats_are_zero():
    s = StreamingStats()
    assert s.count == 0
    assert s.mean == 0.0
    assert s.variance == 0.0
    assert s.min == 0.0
    assert s.max == 0.0


def test_single_value():
    s = StreamingStats()
    s.add(5.0)
    assert s.mean == 5.0
    assert s.variance == 0.0
    assert s.min == s.max == 5.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300))
def test_stats_match_reference(values):
    s = StreamingStats()
    for v in values:
        s.add(v)
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    assert s.count == n
    assert math.isclose(s.mean, mean, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(s.variance, variance, rel_tol=1e-6, abs_tol=1e-3)
    assert s.min == min(values)
    assert s.max == max(values)
    assert math.isclose(s.mean * s.count, sum(values), rel_tol=1e-9, abs_tol=1e-6)
