"""What each module is for, and what the one eviction policy does.

The LRU pin below was taken before CLOCK eviction was removed: the
victims, counters and temperature buckets of a scripted trace are
literals, so "LRU is the only policy" is checked against what LRU did
when it was one of two.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk

# -- the one eviction policy ---------------------------------------------------

#: Victim of each of the 200 fetches ("." = none): page index 0-9.
LRU_VICTIMS = (
    "....074...0631.5.02149...138...1270.9.16085...074...0615.0.21.49"
    "...138...1270.9.16085...074...0631.5.02149...138...1270.9.16085"
    "...074...0631.5.02149...138...1270.9.16085...074...0631.5.02149"
    "...138...1"
)


def test_lru_trace_is_pinned():
    """Ten pages through four frames: two hot pages every third fetch, a
    stride walk over the other eight, one pin held across ten fetches (so
    the victim search skips a pinned frame)."""
    registry = MetricsRegistry()
    pool = BufferPool(SimulatedDisk(256), 4, registry=registry)
    pids = []
    for _ in range(10):
        pids.append(pool.new_page(PageType.HEAP).page_id)
        pool.unpin(pids[-1], dirty=True)
    pool.flush_all()
    pool.drop_clean()
    pool.reset_counters(reset_obs=True)

    trace = [
        i % 2 if i % 3 == 0 else 2 + (i * 5 + i // 7) % 8 for i in range(200)
    ]
    victims = []
    held = None
    for step, index in enumerate(trace):
        before = {p for p in pids if pool.is_resident(p)}
        pool.fetch(pids[index])
        gone = before - {p for p in pids if pool.is_resident(p)}
        victims.append(str(pids.index(gone.pop())) if gone else ".")
        assert not gone  # at most one frame leaves per fetch
        if step == 50:
            held = pids[index]
        else:
            pool.unpin(pids[index])
        if step == 60:
            pool.unpin(held)

    assert "".join(victims) == LRU_VICTIMS
    assert (pool.hits, pool.misses, pool.evictions) == (76, 124, 120)
    pool.drop_clean()
    temperature = registry.get("bufferpool.page_temperature")
    assert temperature.nonzero_buckets() == [(2.0, 59), (4.0, 64), (8.0, 1)]
    assert temperature.sum == 200.0
