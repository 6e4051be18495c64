"""CSN invariants and the predicate log (§2.1.2)."""

import pytest

from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.invalidation import CacheInvalidation, UpdatePredicate
from repro.errors import ReproError
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng


def setup():
    page = SlottedPage.format(bytearray(1024), 1, PageType.BTREE_LEAF)
    cache = IndexCache(12, 24, rng=DeterministicRng(0))
    inv = CacheInvalidation(log_threshold=4)
    return page, cache, inv


def tid(n):
    return n.to_bytes(8, "little")


def key(n):
    return n.to_bytes(8, "big")


def fill(page, cache, n=3):
    for i in range(n):
        cache.insert(page, tid(i), bytes([i]) * 12)


def test_fresh_page_is_stale_and_gets_stamped():
    page, cache, inv = setup()
    fill(page, cache)
    # freshly formatted pages carry CSN 0 < CSN_idx -> invalid
    assert inv.validate_page(page, cache, key(0), key(10))
    assert cache.entries(page) == []
    # second validation: page is current, nothing zeroed
    assert not inv.validate_page(page, cache, key(0), key(10))


def test_invariant_csn_p_le_csn_idx():
    page, cache, inv = setup()
    inv.validate_page(page, cache, key(0), key(10))
    assert page.cache_csn >> 32 == inv.csn_index


def test_invalidate_all_invalidates_every_page():
    page, cache, inv = setup()
    inv.validate_page(page, cache, key(0), key(10))
    fill(page, cache)
    inv.invalidate_all()
    assert inv.validate_page(page, cache, key(0), key(10))
    assert cache.entries(page) == []


def test_predicate_zeroes_matching_page_only():
    page_a, cache, inv = setup()
    page_b = SlottedPage.format(bytearray(1024), 2, PageType.BTREE_LEAF)
    inv.validate_page(page_a, cache, key(0), key(10))
    inv.validate_page(page_b, cache, key(20), key(30))
    fill(page_a, cache)
    for i in range(3):
        cache.insert(page_b, tid(100 + i), bytes([i]) * 12)
    inv.note_update(key(5))  # inside page_a's range only
    assert inv.validate_page(page_a, cache, key(0), key(10))
    assert cache.entries(page_a) == []
    assert not inv.validate_page(page_b, cache, key(20), key(30))
    assert len(cache.entries(page_b)) == 3


def test_predicates_not_rechecked_after_stamp():
    page, cache, inv = setup()
    inv.validate_page(page, cache, key(0), key(10))
    inv.note_update(key(5))
    assert inv.validate_page(page, cache, key(0), key(10))  # zeroed once
    fill(page, cache)  # refill after the zeroing
    # the same (already-processed) predicate must not zero the refill
    assert not inv.validate_page(page, cache, key(0), key(10))
    assert len(cache.entries(page)) == 3


def test_log_overflow_triggers_full_invalidation():
    page, cache, inv = setup()  # threshold 4
    for i in range(5):
        inv.note_update(key(i))
    assert inv.full_invalidations == 1
    assert len(inv._log) == 0


def test_predicate_range_matching():
    p = UpdatePredicate(key(5))
    assert p.matches_range(key(0), key(10))
    assert p.matches_range(key(5), key(5))
    assert not p.matches_range(key(6), key(10))
    assert not p.matches_range(key(0), key(4))


def test_counters():
    page, cache, inv = setup()
    inv.validate_page(page, cache, key(0), key(1))
    inv.note_update(key(0))
    inv.validate_page(page, cache, key(0), key(1))
    assert inv.predicates_logged == 1
    assert inv.pages_zeroed == 2


def test_threshold_validation():
    with pytest.raises(ReproError):
        CacheInvalidation(log_threshold=0)


def test_validation_never_dirties_conceptually():
    """Stamping only rewrites the CSN header field in the frame bytes; the
    caller is expected to unpin clean.  We assert the stamp really landed
    in the bytes so a dropped (undirtied) page simply reverts to stale."""
    page, cache, inv = setup()
    before = page.cache_csn
    inv.validate_page(page, cache, key(0), key(1))
    assert page.cache_csn != before
