"""Replacement policies: placement, promotion, and eviction choices."""

from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.layout import CacheGeometry
from repro.core.index_cache.policy import LruPolicy, RandomPolicy, SwapPolicy
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng


def geometry(page_size=1024, payload=12, entry=24) -> CacheGeometry:
    page = SlottedPage.format(bytearray(page_size), 1, PageType.BTREE_LEAF)
    return IndexCache(payload, entry).geometry(page)


def test_swap_prefers_free_slots():
    geo = geometry()
    policy = SwapPolicy(DeterministicRng(0))
    free = [1, 5, 9]
    chosen = {policy.choose_slot(geo, free, [0, 2], page_key=1) for _ in range(30)}
    assert chosen <= set(free)


def test_swap_evicts_from_peripheral_bucket():
    geo = geometry()
    policy = SwapPolicy(DeterministicRng(0), bucket_slots=4)
    occupied = list(range(geo.num_slots))  # cache full
    buckets = geo.buckets(4)
    peripheral = set(buckets[-1])
    chosen = {
        policy.choose_slot(geo, [], occupied, page_key=1) for _ in range(50)
    }
    assert chosen <= peripheral


def test_swap_evicts_outermost_occupied_bucket():
    geo = geometry()
    policy = SwapPolicy(DeterministicRng(0), bucket_slots=4)
    buckets = geo.buckets(4)
    occupied = list(buckets[0]) + list(buckets[1])  # only inner buckets used
    chosen = {
        policy.choose_slot(geo, [], occupied, page_key=1) for _ in range(50)
    }
    assert chosen <= set(buckets[1])


def test_swap_hit_targets_adjacent_inner_bucket():
    geo = geometry()
    policy = SwapPolicy(DeterministicRng(0), bucket_slots=4)
    buckets = geo.buckets(4)
    slot = buckets[2][0]
    targets = {policy.on_hit(geo, slot, page_key=1) for _ in range(50)}
    assert targets <= set(buckets[1])


def test_swap_hit_in_innermost_bucket_stays():
    geo = geometry()
    policy = SwapPolicy(DeterministicRng(0), bucket_slots=4)
    slot = geo.buckets(4)[0][0]
    assert policy.on_hit(geo, slot, page_key=1) is None


def test_swap_hit_outside_geometry_is_noop():
    geo = geometry()
    policy = SwapPolicy(DeterministicRng(0))
    assert policy.on_hit(geo, geo.num_slots + 100, page_key=1) is None


def test_swap_empty_cache_none():
    geo = geometry()
    policy = SwapPolicy(DeterministicRng(0))
    assert policy.choose_slot(geo, [], [], page_key=1) is None


def test_random_policy_no_promotion():
    geo = geometry()
    policy = RandomPolicy(DeterministicRng(0))
    assert policy.on_hit(geo, 3, page_key=1) is None
    assert policy.choose_slot(geo, [2], [0], page_key=1) == 2
    assert policy.choose_slot(geo, [], [0, 1], page_key=1) in (0, 1)
    assert policy.choose_slot(geo, [], [], page_key=1) is None


def test_lru_policy_evicts_least_recent():
    geo = geometry()
    policy = LruPolicy(DeterministicRng(0))
    policy.on_insert(0, page_key=1)
    policy.on_insert(1, page_key=1)
    policy.on_insert(2, page_key=1)
    policy.on_hit(geo, 0, page_key=1)  # 0 becomes most recent
    victim = policy.choose_slot(geo, [], [0, 1, 2], page_key=1)
    assert victim == 1


def test_lru_state_is_per_page():
    geo = geometry()
    policy = LruPolicy(DeterministicRng(0))
    policy.on_insert(0, page_key=1)
    policy.on_insert(0, page_key=2)
    policy.on_hit(geo, 0, page_key=1)
    # page 2's slot 0 is older than page 1's
    assert policy.choose_slot(geo, [], [0], page_key=2) == 0


def test_lru_evict_clears_state():
    geo = geometry()
    policy = LruPolicy(DeterministicRng(0))
    policy.on_insert(0, page_key=1)
    policy.on_evict(0, page_key=1)
    # no residual recency: falls back to zero-clock default
    assert policy.choose_slot(geo, [], [0, 1], page_key=1) in (0, 1)
