"""Intermediate-result reuse with epoch + CSN invalidation.

"Revisiting Reuse in Main Memory Database Systems" (PAPERS.md)
motivates caching scan/aggregate intermediates: analytic workloads
re-issue the same fingerprints far more often than the data changes.
The cache key is the PR-5 profiler fingerprint extended with the
canonical predicate text (fingerprints normalize away constants — two
scans with different range bounds share a fingerprint but are different
results).

Invalidation rule (DESIGN.md §5h): an entry is valid only while *both*
capture tokens still hold —

* the table's mutation ``epoch`` (bumped by every applied heap write,
  including MVCC compensation writes during abort), and
* the engine commit sequence number (CSN) at capture time.

Either token moving means the fragment may describe dead state, so the
entry is dropped on its next touch.  The epoch already makes stale
reads impossible at the Table layer; the CSN term additionally retires
fragments across commit boundaries so an MVCC session never has its
overlay applied on top of a pre-commit fragment captured under a
different snapshot regime.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


class CacheEntry:
    __slots__ = ("epoch", "csn", "value")

    def __init__(self, epoch: int, csn: int, value) -> None:
        self.epoch = epoch
        self.csn = csn
        self.value = value


@dataclass
class ColumnarStats:
    """One manager's columnar counts, bumped by its stores and its cache
    and adopted by its registry: plain ints, so the registry never holds
    a store or a cached fragment, and a dropped table's counts stay."""

    rebuilds: int = 0
    segments_sealed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0


class IntermediateCache:
    """A small LRU of reusable scan/aggregate fragments."""

    def __init__(self, stats: ColumnarStats, capacity: int = 256) -> None:
        self._capacity = max(1, capacity)
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self.stats = stats

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, epoch: int, csn: int):
        """The cached value, or None on miss / staleness (entry dropped)."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.cache_misses += 1
            return None
        if entry.epoch != epoch or entry.csn != csn:
            del self._entries[key]
            self.stats.cache_invalidations += 1
            self.stats.cache_misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.cache_hits += 1
        return entry.value

    def put(self, key: tuple, epoch: int, csn: int, value) -> None:
        self._entries[key] = CacheEntry(epoch, csn, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def discard_table(self, table: str) -> None:
        """Drop every fragment of ``table`` (keys are ``(verb, table, ...)``)."""
        for key in [k for k in self._entries if k[1] == table]:
            del self._entries[key]
