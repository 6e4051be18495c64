"""Try-latch simulation (§2.1.3)."""

import pytest

from repro.core.index_cache.latching import LatchSimulator
from repro.errors import ReproError
from repro.util.rng import DeterministicRng


def test_no_contention_always_acquires():
    latch = LatchSimulator(0.0)
    assert all(latch.try_acquire() for _ in range(100))
    assert latch.given_up == 0
    assert latch.acquired == 100  # give-up rate 0


def test_full_contention_never_acquires():
    latch = LatchSimulator(1.0, DeterministicRng(0))
    assert not any(latch.try_acquire() for _ in range(100))
    assert latch.acquired == 0
    assert latch.given_up == 100  # give-up rate 1


def test_partial_contention_rate():
    latch = LatchSimulator(0.3, DeterministicRng(7))
    for _ in range(5000):
        latch.try_acquire()
    assert latch.acquired + latch.given_up == 5000
    assert latch.given_up == pytest.approx(0.3 * 5000, abs=0.03 * 5000)


def test_probability_validation():
    with pytest.raises(ReproError):
        LatchSimulator(-0.1)
    with pytest.raises(ReproError):
        LatchSimulator(1.1)


def test_give_up_rate_empty():
    latch = LatchSimulator(0.5)
    assert latch.acquired == latch.given_up == 0  # no attempt, no give-up
