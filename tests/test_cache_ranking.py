"""Arithmetic stability ranking == the sort it replaced.

``CacheGeometry`` ranks slots by distance from the stable point S without
sorting: slot centres are evenly spaced, so the order is "nearer neighbour
of S first, then alternate sides until one runs out".  The sort over every
slot — what ``slots_by_stability`` used to run on each cache hit — lives
here as the oracle, and every comparison below is for *equality of the
whole list*, ties included (a stable sort over ``range`` sends a tie to
the lower index).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index_cache.layout import CacheGeometry
from repro.core.index_cache.policy import SwapPolicy
from repro.errors import ReproError
from repro.storage.constants import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    SLOT_ENTRY_SIZE,
)
from repro.util.rng import DeterministicRng

PAGE_SIZES = (512, 1024, 4096, 8192)
ITEM_SIZES = (26, 11, 35)  # 26 is the bench's page-table item
ENTRY_SIZES = (12, 33, 263)


def sorted_ranking(geo: CacheGeometry) -> list[int]:
    """The replaced implementation, verbatim: sort every slot by distance."""
    s = geo.stable_point
    half = geo.item_size / 2
    offsets = [geo.slot_offset(i) for i in range(geo.num_slots)]
    return sorted(range(len(offsets)), key=lambda i: abs(offsets[i] + half - s))


def sorted_buckets(geo: CacheGeometry, bucket_slots: int) -> list[list[int]]:
    ranked = sorted_ranking(geo)
    return [
        ranked[i : i + bucket_slots] for i in range(0, len(ranked), bucket_slots)
    ]


def window(page_size, item_size, entry_size, first_slot, num_slots, slack=0):
    """The geometry whose window holds exactly these aligned slots."""
    lo = first_slot * item_size
    geo = CacheGeometry(
        page_size, lo - slack, lo + num_slots * item_size + slack,
        item_size, entry_size,
    )
    assert (geo.first_slot_index, geo.num_slots) == (first_slot, num_slots)
    return geo


def assert_same_ranking(geo: CacheGeometry) -> None:
    expected = sorted_ranking(geo)
    assert geo.slots_by_stability() == expected, geo
    assert [geo.rank_of(slot) for slot in expected] == list(range(len(expected)))


# -- differential: exhaustive and random --------------------------------------


@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_ranking_equals_sort_at_every_leaf_fill(page_size):
    """Every window a leaf passes through as it fills one entry at a time:
    the directory eats ``D`` bytes from below, the keys ``K`` from above."""
    checked = 0
    for item_size in ITEM_SIZES:
        for entry_size in ENTRY_SIZES:
            lo, hi = PAGE_HEADER_SIZE, page_size - PAGE_FOOTER_SIZE
            while lo <= hi:
                geo = CacheGeometry(page_size, lo, hi, item_size, entry_size)
                assert geo.slots_by_stability() == sorted_ranking(geo), geo
                checked += 1
                lo += SLOT_ENTRY_SIZE
                hi -= entry_size
    assert checked > 100


@pytest.mark.parametrize("page_size", (512, 1024))
def test_ranking_equals_sort_for_every_window(page_size):
    """Every ``(first_slot_index, num_slots)`` that fits the page — windows
    no fill order reaches (deletes, compaction) included."""
    for item_size in ITEM_SIZES:
        first = -(-PAGE_HEADER_SIZE // item_size)
        last = (page_size - PAGE_FOOTER_SIZE) // item_size
        for entry_size in ENTRY_SIZES:
            for first_slot in range(first, last + 1):
                for num_slots in range(last - first_slot + 1):
                    assert_same_ranking(window(
                        page_size, item_size, entry_size, first_slot, num_slots
                    ))


@pytest.mark.parametrize("page_size", (4096, 8192))
def test_ranking_equals_sort_for_windows_around_s(page_size):
    """On the big pages: every window of up to 9 slots (two buckets and a
    short third) starting anywhere, and every window that starts or ends
    within 3 slots of S."""
    for item_size in ITEM_SIZES:
        first = -(-PAGE_HEADER_SIZE // item_size)
        last = (page_size - PAGE_FOOTER_SIZE) // item_size
        for entry_size in ENTRY_SIZES:
            s = window(page_size, item_size, entry_size, first, 0).stable_point
            near = int(s // item_size)
            for first_slot in range(first, last + 1):
                for num_slots in range(min(9, last - first_slot) + 1):
                    assert_same_ranking(window(
                        page_size, item_size, entry_size, first_slot, num_slots
                    ))
            for edge in range(max(first, near - 3), min(last, near + 3) + 1):
                for other in range(first, last + 1, 7):
                    lo, hi = min(edge, other), max(edge, other)
                    assert_same_ranking(window(
                        page_size, item_size, entry_size, lo, hi - lo
                    ))


@settings(max_examples=300, deadline=None)
@given(
    page_size=st.integers(128, 16384),
    item_size=st.integers(11, 80),
    entry_size=st.integers(5, 400),
    lo=st.integers(0, 16384),
    width=st.integers(0, 16384),
)
def test_ranking_equals_sort_on_random_geometries(
    page_size, item_size, entry_size, lo, width
):
    lo = PAGE_HEADER_SIZE + lo % page_size
    hi = min(lo + width, page_size)
    assert_same_ranking(CacheGeometry(page_size, lo, hi, item_size, entry_size))


# -- named cases ----------------------------------------------------------------

# page 1024: usable 988.  entry 15 -> S = 32 + 988*4/19 = 240 exactly;
# entry 22 -> S = 32 + 988*4/26 = 184 exactly.  Item size 16: slot j covers
# [16j, 16j+16) with its centre at 16j + 8.
S_240 = dict(page_size=1024, item_size=16, entry_size=15)  # between slots 14|15
S_184 = dict(page_size=1024, item_size=16, entry_size=22)  # centre of slot 11


def test_stable_points_of_the_named_cases():
    assert window(**S_240, first_slot=2, num_slots=0).stable_point == 240.0
    assert window(**S_184, first_slot=2, num_slots=0).stable_point == 184.0


def test_empty_window_ranks_nothing():
    geo = window(**S_240, first_slot=10, num_slots=0)
    assert geo.slots_by_stability() == []
    assert geo.buckets(4) == []
    assert geo.slots_at_ranks(0, 4) == []


def test_one_and_two_slot_windows():
    assert window(**S_240, first_slot=3, num_slots=1).slots_by_stability() == [0]
    # both left of S: the higher slot is nearer
    assert window(**S_240, first_slot=3, num_slots=2).slots_by_stability() == [1, 0]
    # both right of S: the lower slot is nearer
    assert window(**S_240, first_slot=20, num_slots=2).slots_by_stability() == [0, 1]
    # straddling S exactly: a tie, lower index first
    assert window(**S_240, first_slot=14, num_slots=2).slots_by_stability() == [0, 1]


def test_s_left_of_the_window_ranks_in_address_order():
    geo = window(**S_240, first_slot=15, num_slots=9)
    assert geo.slots_by_stability() == list(range(9))
    assert_same_ranking(geo)


def test_s_right_of_the_window_ranks_in_reverse_address_order():
    geo = window(**S_240, first_slot=4, num_slots=11)  # ends at 240 == S
    assert geo.slots_by_stability() == list(range(10, -1, -1))
    assert_same_ranking(geo)


def test_s_midway_between_two_centres_ties_go_to_the_lower_index():
    geo = window(**S_240, first_slot=11, num_slots=9)  # slots 11..19, S at 15
    # left side has 4 slots (3,2,1,0 outward), right side 5 (4..8 outward)
    assert geo.slots_by_stability() == [3, 4, 2, 5, 1, 6, 0, 7, 8]
    assert_same_ranking(geo)


def test_s_exactly_on_a_slot_centre():
    geo = window(**S_184, first_slot=8, num_slots=8)  # slots 8..15, S in 11
    # slot 3 is at distance 0; then 2 and 4 tie at one item, 1 and 5 at two
    assert geo.slots_by_stability() == [3, 2, 4, 1, 5, 0, 6, 7]
    assert_same_ranking(geo)


def test_s_inside_the_window_nearer_side_first():
    geo = window(page_size=1024, item_size=16, entry_size=24,
                 first_slot=6, num_slots=10, slack=5)
    # S = 32 + 988*4/28 = 173.14, inside slot 10 (index 4, centre 168): 5.14
    # from that centre, 10.86 from the next one up — then they alternate
    assert geo.stable_point == pytest.approx(173.142857)
    assert geo.slots_by_stability() == [4, 5, 3, 6, 2, 7, 1, 8, 0, 9]
    assert_same_ranking(geo)


@pytest.mark.parametrize("bucket_slots", (1, 2, 3, 4, 5))
def test_buckets_equal_the_sorted_buckets(bucket_slots):
    for num_slots in range(0, 23):
        for first_slot in (3, 9, 12, 14, 15, 20):
            geo = window(**S_240, first_slot=first_slot, num_slots=num_slots)
            buckets = geo.buckets(bucket_slots)
            assert buckets == sorted_buckets(geo, bucket_slots)
            assert all(len(b) == bucket_slots for b in buckets[:-1])
            if num_slots % bucket_slots:  # the last bucket is short
                assert len(buckets[-1]) == num_slots % bucket_slots


@pytest.mark.parametrize("bucket_slots", (1, 3, 4, 5))
def test_swap_hit_draws_from_the_bucket_one_step_closer(bucket_slots):
    """For every slot: the policy returns None in bucket 0 and otherwise
    makes the very draw ``choice(buckets[b - 1])`` would."""
    for first_slot, num_slots in ((3, 11), (11, 9), (8, 23), (15, 14), (14, 2)):
        geo = window(**S_184, first_slot=first_slot, num_slots=num_slots)
        buckets = sorted_buckets(geo, bucket_slots)
        policy = SwapPolicy(DeterministicRng(3), bucket_slots)
        mirror = DeterministicRng(3)
        for b, bucket in enumerate(buckets):
            for slot in bucket:
                expected = mirror.choice(buckets[b - 1]) if b else None
                assert policy.on_hit(geo, slot, page_key=1) == expected
        for outside in (-1, num_slots, num_slots + 100):
            assert policy.on_hit(geo, outside, page_key=1) is None


def test_swap_eviction_walks_buckets_outermost_first():
    geo = window(**S_240, first_slot=9, num_slots=14)
    buckets = sorted_buckets(geo, 4)
    assert len(buckets[-1]) == 2  # short periphery
    policy = SwapPolicy(DeterministicRng(9), bucket_slots=4)
    mirror = DeterministicRng(9)
    for depth in range(len(buckets), 0, -1):
        occupied = sorted(s for bucket in buckets[:depth] for s in bucket)
        victims = [s for s in buckets[depth - 1] if s in occupied]
        for _ in range(5):
            assert policy.choose_slot(geo, [], occupied, 1) == mirror.choice(victims)


def test_slot_offset_on_an_empty_window_says_so():
    geo = window(**S_240, first_slot=10, num_slots=0)
    with pytest.raises(ReproError, match="window holds no slots"):
        geo.slot_offset(0)
    with pytest.raises(ReproError, match=r"slot 3 out of range 0\.\.2"):
        window(**S_240, first_slot=10, num_slots=3).slot_offset(3)
