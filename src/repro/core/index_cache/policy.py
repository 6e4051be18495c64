"""Cache replacement policies (§2.1.1) plus baselines for ablation.

The paper's policy ("Swap"):

* The cache is logically split into buckets of N slots, ordered by
  distance from the stable point S.
* First insert of an item goes to a *random free* slot; if none is free it
  evicts a random item in a *peripheral* bucket.
* On a lookup hit, the item swaps with a random slot in the adjacent
  bucket one step closer to S.

The effect: hot items random-walk toward the interior, so when index
growth eats the window from both ends, the least-accessed items are the
ones overwritten.  ``RandomPolicy`` and ``LruPolicy`` exist as ablation
baselines (A1 in DESIGN.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.index_cache.layout import CacheGeometry
from repro.util.rng import DeterministicRng


class CachePolicy(ABC):
    """Chooses where items land and how hits reposition them.

    Policies see only slot indices and occupancy; the cache handles bytes.
    ``page_key`` is an opaque identity (the page id) for policies that keep
    per-page auxiliary state.
    """

    @abstractmethod
    def choose_slot(
        self,
        geo: CacheGeometry,
        free: list[int],
        occupied: list[int],
        page_key: int,
    ) -> int | None:
        """Slot to write a new item into, or ``None`` to skip caching."""

    @abstractmethod
    def on_hit(
        self, geo: CacheGeometry, slot: int, page_key: int
    ) -> int | None:
        """Called after a hit in ``slot``.

        Returns a slot to swap the item with (the cache performs the swap),
        or ``None`` to leave it in place.
        """

    def on_evict(self, slot: int, page_key: int) -> None:
        """Notification that ``slot``'s item was dropped (aux bookkeeping)."""

    def on_insert(self, slot: int, page_key: int) -> None:
        """Notification that a new item landed in ``slot``."""


class SwapPolicy(CachePolicy):
    """The paper's bucketed swap-toward-the-stable-point policy."""

    def __init__(self, rng: DeterministicRng, bucket_slots: int = 4) -> None:
        if bucket_slots <= 0:
            raise ValueError("bucket_slots must be positive")
        self._rng = rng
        self.bucket_slots = bucket_slots

    def choose_slot(
        self,
        geo: CacheGeometry,
        free: list[int],
        occupied: list[int],
        page_key: int,
    ) -> int | None:
        if free:
            return self._rng.choice(free)
        if not occupied:
            return None
        # Evict a random item from the outermost bucket that has any.
        occupied_set = set(occupied)
        width = self.bucket_slots
        outermost = (geo.num_slots - 1) // width * width  # its first rank
        for lo in range(outermost, -1, -width):
            bucket = geo.slots_at_ranks(lo, lo + width)
            victims = [s for s in bucket if s in occupied_set]
            if victims:
                return self._rng.choice(victims)
        return None  # pragma: no cover - occupied implies a bucket has items

    def on_hit(
        self, geo: CacheGeometry, slot: int, page_key: int
    ) -> int | None:
        if not 0 <= slot < geo.num_slots:
            return None  # slot no longer in the geometry (window moved)
        width = self.bucket_slots
        # first rank of the bucket one step closer to S than the slot's own
        closer = (geo.rank_of(slot) // width - 1) * width
        if closer < 0:
            return None  # already in the innermost bucket
        return self._rng.choice(geo.slots_at_ranks(closer, closer + width))


class RandomPolicy(CachePolicy):
    """Random placement, random eviction, no promotion (ablation baseline)."""

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng

    def choose_slot(
        self,
        geo: CacheGeometry,
        free: list[int],
        occupied: list[int],
        page_key: int,
    ) -> int | None:
        if free:
            return self._rng.choice(free)
        if not occupied:
            return None
        return self._rng.choice(occupied)

    def on_hit(
        self, geo: CacheGeometry, slot: int, page_key: int
    ) -> int | None:
        return None


class LruPolicy(CachePolicy):
    """True LRU via auxiliary in-memory recency (ablation baseline).

    Note this policy cheats relative to the paper's constraints: it keeps
    per-page recency state *outside* the page bytes, which a real system
    would have to persist or rebuild.  It exists to quantify how close the
    paper's stateless swap scheme gets to proper LRU (ablation A1).

    LRU also ignores slot *position*, so under index growth it loses hot
    items that happen to sit at the periphery — the exact failure mode the
    stable-point design avoids.
    """

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng
        self._clock = 0
        self._last_use: dict[tuple[int, int], int] = {}

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def choose_slot(
        self,
        geo: CacheGeometry,
        free: list[int],
        occupied: list[int],
        page_key: int,
    ) -> int | None:
        if free:
            return self._rng.choice(free)
        if not occupied:
            return None
        return min(
            occupied, key=lambda s: self._last_use.get((page_key, s), 0)
        )

    def on_hit(
        self, geo: CacheGeometry, slot: int, page_key: int
    ) -> int | None:
        self._last_use[(page_key, slot)] = self._tick()
        return None

    def on_insert(self, slot: int, page_key: int) -> None:
        self._last_use[(page_key, slot)] = self._tick()

    def on_evict(self, slot: int, page_key: int) -> None:
        self._last_use.pop((page_key, slot), None)
