"""Abstract swap-cache simulator — the Figure 2(a) methodology.

The paper's hit-rate study is itself a simulation ("We ran a simulation to
study how the hit rate varies with the cache size...").  This module
mirrors that: a bare array of slots managed by the exact §2.1.1 algorithm,
with no pages or bytes, so hit rates can be measured across cache sizes in
milliseconds.

Slot order here *is* stability order: slot 0 is the stable point S, the
last slot is the periphery.  The two scenarios:

* **Swap** — read-only: the slot array never changes size.
* **Shrink** — read/insert: index growth overwrites the periphery;
  modelled (as the paper does) by removing peripheral slots at a constant
  rate until half the cache is gone by the end of the run.

The byte-level :class:`~repro.core.index_cache.cache.IndexCache` runs the
same algorithm via :class:`~repro.core.index_cache.policy.SwapPolicy`;
integration tests assert the two implementations agree on hit rates.
"""

from __future__ import annotations

from typing import Hashable

from repro.errors import ReproError
from repro.util.rng import DeterministicRng


class SwapCacheSimulator:
    """Bucketed swap cache over abstract items."""

    def __init__(
        self,
        capacity: int,
        bucket_slots: int = 4,
        rng: DeterministicRng | None = None,
    ) -> None:
        if capacity < 0:
            raise ReproError("capacity must be non-negative")
        if bucket_slots <= 0:
            raise ReproError("bucket_slots must be positive")
        self._slots: list[Hashable | None] = [None] * capacity
        self._where: dict[Hashable, int] = {}
        self._bucket_slots = bucket_slots
        self._rng = rng if rng is not None else DeterministicRng(0)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- properties ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self._slots)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- the §2.1.1 algorithm ---------------------------------------------------

    def lookup(self, item: Hashable) -> bool:
        """One probe: hit promotes toward S, miss inserts.  Returns hit."""
        slot = self._where.get(item)
        if slot is not None:
            self.hits += 1
            self._promote(slot)
            return True
        self.misses += 1
        self._insert(item)
        return False

    def _promote(self, slot: int) -> None:
        """Swap the item with a random slot in the adjacent bucket closer
        to the stable point (bucket 0)."""
        bucket = slot // self._bucket_slots
        if bucket == 0:
            return
        lo = (bucket - 1) * self._bucket_slots
        hi = min(lo + self._bucket_slots, len(self._slots))
        target = self._rng.randint(lo, hi - 1)
        self._swap(slot, target)

    def _insert(self, item: Hashable) -> None:
        if not self._slots:
            return
        free = [i for i, v in enumerate(self._slots) if v is None]
        if free:
            slot = self._rng.choice(free)
        else:
            slot = self._peripheral_victim()
            victim = self._slots[slot]
            if victim is not None:
                del self._where[victim]
                self.evictions += 1
        self._slots[slot] = item
        self._where[item] = slot

    def _peripheral_victim(self) -> int:
        """Random occupied slot in the outermost occupied bucket."""
        n = len(self._slots)
        last_bucket_start = ((n - 1) // self._bucket_slots) * self._bucket_slots
        for lo in range(last_bucket_start, -1, -self._bucket_slots):
            hi = min(lo + self._bucket_slots, n)
            occupied = [i for i in range(lo, hi) if self._slots[i] is not None]
            if occupied:
                return self._rng.choice(occupied)
        raise ReproError("no occupied slot to evict")  # pragma: no cover

    def _swap(self, a: int, b: int) -> None:
        item_a = self._slots[a]
        item_b = self._slots[b]
        self._slots[a], self._slots[b] = item_b, item_a
        if item_a is not None:
            self._where[item_a] = b
        if item_b is not None:
            self._where[item_b] = a

    # -- the Shrink scenario -----------------------------------------------------

    def shrink(self, n_slots: int = 1) -> None:
        """Index growth claims ``n_slots`` peripheral slots.

        Items living there are lost without notice — the simulation
        analogue of key bytes overwriting the window's edges.
        """
        for _ in range(min(n_slots, len(self._slots))):
            victim = self._slots.pop()  # the outermost slot
            if victim is not None:
                del self._where[victim]
