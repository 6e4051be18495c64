"""Access-frequency tracking: who is hot?

§3.1 closes with: "Other applications may have different policies, or
require automated tools to keep track of access patterns."  This is that
tool: a decayed access counter per tuple key.  Wikipedia's own policy
(hot = the revision pointed to by the page table) is expressible without
it, but the tracker lets the clustering operator work on any workload.

Counts decay exponentially at epoch boundaries so the tracker follows
shifting workloads instead of accumulating history forever.  Decay is
applied lazily per key (O(1) per access, no sweep).
"""

from __future__ import annotations

import math

from repro.errors import WorkloadError


class AccessTracker:
    """Decayed per-key access counts with hot-set extraction."""

    def __init__(self, decay: float = 0.5) -> None:
        """
        Args:
            decay: multiplier applied to every count per epoch; 1.0 keeps
                raw lifetime counts, smaller values forget faster.
        """
        if not 0.0 < decay <= 1.0:
            raise WorkloadError("decay must be in (0, 1]")
        self._decay = decay
        self.epoch = 0
        #: key -> (count, epoch the count was last normalised to)
        self._counts: dict[object, tuple[float, int]] = {}
        self.total_accesses = 0

    def record(self, key: object) -> None:
        """Count one access to ``key``."""
        count, last_epoch = self._counts.get(key, (0.0, self.epoch))
        if last_epoch != self.epoch:
            count *= self._decay ** (self.epoch - last_epoch)
        self._counts[key] = (count + 1.0, self.epoch)
        self.total_accesses += 1

    def advance_epoch(self) -> None:
        """Start a new epoch: all existing counts decay once (lazily)."""
        self.epoch += 1

    def count_of(self, key: object) -> float:
        """Current decayed count for ``key``."""
        count, last_epoch = self._counts.get(key, (0.0, self.epoch))
        if last_epoch != self.epoch:
            count *= self._decay ** (self.epoch - last_epoch)
        return count

    def hottest(self, k: int) -> list[object]:
        """The ``k`` keys with the highest decayed counts."""
        ranked = sorted(
            self._counts, key=self.count_of, reverse=True
        )
        return ranked[:k]

    def hot_set(self, fraction: float) -> list[object]:
        """The hottest ``fraction`` of *tracked* keys.

        The set size is ``ceil(len * fraction)``: any nonzero fraction
        over a nonempty tracker yields at least one key.  (Banker's
        ``round()`` was used here once and silently returned an *empty*
        hot set for e.g. one key at fraction 0.5 — ``round(0.5) == 0`` —
        so a clustering pass moved nothing; ``ceil`` makes small-but-
        nonzero requests err toward including the boundary key.)
        """
        if not 0.0 <= fraction <= 1.0:
            raise WorkloadError("fraction must be in [0, 1]")
        k = math.ceil(len(self._counts) * fraction)
        return self.hottest(k)

    def keys_above(self, threshold: float) -> list[object]:
        """Every key whose decayed count exceeds ``threshold``."""
        return [k for k in self._counts if self.count_of(k) > threshold]

    def coverage(self, keys: list[object]) -> float:
        """Fraction of all recorded accesses that went to ``keys``.

        The paper's statistic: "99.9% of page requests access the 5% of
        tuples that represent the most recent revisions".
        """
        if self.total_accesses == 0:
            return 0.0
        chosen = sum(self.count_of(k) for k in keys)
        total = sum(self.count_of(k) for k in self._counts)
        return chosen / total if total else 0.0

