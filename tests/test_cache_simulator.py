"""SwapCacheSimulator: the Fig-2a abstract model."""

import pytest

from repro.core.index_cache.simulator import SwapCacheSimulator
from repro.errors import ReproError
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution


def test_miss_then_hit():
    sim = SwapCacheSimulator(4, rng=DeterministicRng(0))
    assert not sim.lookup("a")
    assert sim.lookup("a")
    assert sim.hits == 1
    assert sim.misses == 1
    assert "a" in sim._where


def test_capacity_bound_respected():
    sim = SwapCacheSimulator(3, rng=DeterministicRng(0))
    for i in range(10):
        sim.lookup(i)
    assert len(sim._where) == 3
    assert sim.evictions == 7


def test_zero_capacity_never_hits():
    sim = SwapCacheSimulator(0, rng=DeterministicRng(0))
    for _ in range(3):
        assert not sim.lookup("x")
    assert sim.hit_rate == 0.0


def test_shrink_removes_peripheral_slots_and_items():
    sim = SwapCacheSimulator(8, bucket_slots=2, rng=DeterministicRng(0))
    for i in range(8):
        sim.lookup(i)
    assert len(sim._where) == 8
    sim.shrink(3)
    assert sim.capacity == 5
    assert len(sim._where) == 5


def test_shrink_beyond_capacity():
    sim = SwapCacheSimulator(2, rng=DeterministicRng(0))
    sim.lookup("a")
    sim.shrink(10)
    assert sim.capacity == 0
    assert len(sim._where) == 0


def test_hot_items_survive_shrink():
    """The core §2.1.1 claim: repeated hits migrate an item inward, so it
    outlives peripheral shrinkage."""
    sim = SwapCacheSimulator(32, bucket_slots=4, rng=DeterministicRng(2))
    for i in range(32):
        sim.lookup(f"cold{i}")
    for _ in range(200):
        sim.lookup("hot")
    sim.shrink(24)  # destroy 3/4 of the cache from the periphery
    assert "hot" in sim._where


def test_hit_rate_tracks_zipf_oracle_loosely():
    n = 2000
    sim = SwapCacheSimulator(n // 2, rng=DeterministicRng(3))
    zipf = ZipfianDistribution(n, 1.0, DeterministicRng(4))
    for _ in range(30000):
        sim.lookup(zipf.sample())
    sim.reset_counters()
    for _ in range(30000):
        sim.lookup(zipf.sample())
    assert 0.7 < sim.hit_rate < 1.0


def test_validation():
    with pytest.raises(ReproError):
        SwapCacheSimulator(-1)
    with pytest.raises(ReproError):
        SwapCacheSimulator(4, bucket_slots=0)


def test_reset_counters():
    sim = SwapCacheSimulator(4, rng=DeterministicRng(0))
    sim.lookup("a")
    sim.reset_counters()
    assert sim.hits == sim.misses == sim.evictions == 0
