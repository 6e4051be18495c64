"""AccessTracker: counts, decay, hot-set extraction."""

import pytest

from repro.core.hot_cold.tracker import AccessTracker
from repro.errors import WorkloadError


def test_record_and_count():
    t = AccessTracker()
    t.record("a")
    t.record("a")
    t.record("b")
    assert t.count_of("a") == 2
    assert t.count_of("b") == 1
    assert t.count_of("missing") == 0
    assert t.total_accesses == 3
    assert len(t._counts) == 2


def test_hottest_ordering():
    t = AccessTracker()
    for key, n in (("x", 5), ("y", 3), ("z", 8)):
        for _ in range(n):
            t.record(key)
    assert t.hottest(2) == ["z", "x"]
    assert t.hottest(10) == ["z", "x", "y"]


def test_hot_set_fraction():
    t = AccessTracker()
    for i in range(10):
        for _ in range(10 - i):
            t.record(i)
    hot = t.hot_set(0.2)
    assert hot == [0, 1]
    with pytest.raises(WorkloadError):
        t.hot_set(1.5)


def test_decay_halves_counts():
    t = AccessTracker(decay=0.5)
    for _ in range(8):
        t.record("a")
    t.advance_epoch()
    assert t.count_of("a") == pytest.approx(4.0)
    t.advance_epoch()
    assert t.count_of("a") == pytest.approx(2.0)
    # recording after decay adds to the decayed value
    t.record("a")
    assert t.count_of("a") == pytest.approx(3.0)


def test_decay_lets_new_hotness_overtake():
    t = AccessTracker(decay=0.1)
    for _ in range(100):
        t.record("old")
    t.advance_epoch()
    for _ in range(20):
        t.record("new")
    assert t.hottest(1) == ["new"]


def test_no_decay_keeps_history():
    t = AccessTracker(decay=1.0)
    t.record("a")
    t.advance_epoch()
    assert t.count_of("a") == 1.0


def test_coverage_statistic():
    """The paper's '99.9% of requests to 5% of tuples' measurement."""
    t = AccessTracker()
    for _ in range(999):
        t.record("hot")
    t.record("cold")
    assert t.coverage(["hot"]) == pytest.approx(0.999)
    assert t.coverage([]) == 0.0


def test_keys_above_threshold():
    t = AccessTracker()
    for _ in range(5):
        t.record("a")
    t.record("b")
    assert t.keys_above(2.0) == ["a"]


def test_decay_validation():
    with pytest.raises(WorkloadError):
        AccessTracker(decay=0.0)
    with pytest.raises(WorkloadError):
        AccessTracker(decay=1.5)


def test_hot_set_nonzero_fraction_never_empty():
    """ceil semantics: any nonzero fraction of a nonempty tracker yields
    at least one key (banker's round() used to return [] for 1 key at
    fraction 0.5, so clustering passes silently moved nothing)."""
    t = AccessTracker()
    t.record("only")
    assert t.hot_set(0.5) == ["only"]
    assert t.hot_set(0.01) == ["only"]
    assert t.hot_set(0.0) == []


def test_hot_set_rounds_up_not_bankers():
    t = AccessTracker()
    for i in range(5):
        for _ in range(5 - i):
            t.record(i)
    # 5 * 0.5 = 2.5 -> ceil -> 3 (round() would give banker's 2).
    assert t.hot_set(0.5) == [0, 1, 2]
    # 5 * 0.3 = 1.5 -> ceil -> 2 (round() would give banker's 2 too,
    # but 5 * 0.1 = 0.5 -> ceil -> 1 where round() gave 0).
    assert t.hot_set(0.1) == [0]
    assert len(t.hot_set(1.0)) == 5
