"""Access distributions: skew shapes and determinism."""

import pytest

from repro.errors import WorkloadError
from repro.util.rng import DeterministicRng
from repro.workload.distributions import (
    HotSetDistribution,
    UniformDistribution,
    ZipfianDistribution,
)


def test_zipf_determinism():
    a = ZipfianDistribution(100, 1.0, DeterministicRng(1))
    b = ZipfianDistribution(100, 1.0, DeterministicRng(1))
    assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


def test_zipf_rank_zero_is_most_frequent():
    z = ZipfianDistribution(1000, 1.0, DeterministicRng(2))
    counts: dict[int, int] = {}
    for _ in range(20000):
        r = z.sample_rank()
        counts[r] = counts.get(r, 0) + 1
    assert counts.get(0, 0) == max(counts.values())


def test_zipf_access_probability_sums_to_one():
    z = ZipfianDistribution(50, 0.5, DeterministicRng(0))
    total = sum(z.access_probability(r) for r in range(50))
    assert total == pytest.approx(1.0)


def test_zipf_scatter_spreads_hot_items():
    z = ZipfianDistribution(1000, 1.0, DeterministicRng(3), scatter=True)
    hottest = z.hottest(20)
    # scattered ids should not all sit in the low range
    assert max(hottest) > 500


def test_zipf_no_scatter_is_identity():
    z = ZipfianDistribution(100, 1.0, DeterministicRng(3), scatter=False)
    assert z.item_for_rank(0) == 0
    assert z.hottest(3) == [0, 1, 2]


def test_zipf_alpha_zero_is_uniformish():
    z = ZipfianDistribution(10, 0.0, DeterministicRng(4))
    for r in range(10):
        assert z.access_probability(r) == pytest.approx(0.1)


def test_zipf_validation():
    with pytest.raises(WorkloadError):
        ZipfianDistribution(0, 1.0, DeterministicRng(0))
    with pytest.raises(WorkloadError):
        ZipfianDistribution(10, -1.0, DeterministicRng(0))


def test_uniform_covers_domain():
    u = UniformDistribution(5, DeterministicRng(0))
    assert {u.sample() for _ in range(300)} == {0, 1, 2, 3, 4}
    with pytest.raises(WorkloadError):
        UniformDistribution(0, DeterministicRng(0))


def test_hotset_sizes():
    h = HotSetDistribution(1000, 0.05, 0.999, DeterministicRng(5))
    assert len(h.hot_ids) == 50
    assert len(h._cold) == 950
    assert all(h.is_hot(i) for i in h.hot_ids)
    assert not any(h.is_hot(i) for i in h._cold)


def test_hotset_access_concentration():
    """The §3.1 premise: ~99.9% of draws land in the hot 5%."""
    h = HotSetDistribution(1000, 0.05, 0.999, DeterministicRng(6))
    draws = [h.sample() for _ in range(20000)]
    hot_draws = sum(1 for d in draws if h.is_hot(d))
    assert hot_draws / len(draws) > 0.99


def test_hotset_all_hot():
    h = HotSetDistribution(10, 1.0, 0.5, DeterministicRng(0))
    assert len(h.hot_ids) == 10
    assert h.is_hot(h.sample())


def test_hotset_validation():
    with pytest.raises(WorkloadError):
        HotSetDistribution(0, 0.1, 0.9, DeterministicRng(0))
    with pytest.raises(WorkloadError):
        HotSetDistribution(10, 0.0, 0.9, DeterministicRng(0))
    with pytest.raises(WorkloadError):
        HotSetDistribution(10, 0.5, 1.5, DeterministicRng(0))
