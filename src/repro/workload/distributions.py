"""Access-skew distributions over item ids.

Three shapes cover every experiment in the paper:

* **Zipfian(α)** — Figure 2(a) uses α = 0.5 ("similar to Wikipedia").
  Sampling uses an inverse-CDF table over ranks, built once in O(n); draws
  are O(log n) bisection.  Rank→item mapping is shuffled so that hot items
  are scattered across the id space (ids correlate with physical placement
  in the heap, and the paper's premise is that hot tuples are *scattered*).
* **Uniform** — the "random lookup distribution" of Figure 2(b).
* **HotSet** — the revision-table pattern of §3.1: a fraction ``hot_frac``
  of items receives ``hot_access_frac`` of all accesses (99.9% of requests
  to 5% of tuples).
"""

from __future__ import annotations

import bisect
import itertools

from repro.errors import WorkloadError
from repro.util.rng import DeterministicRng


class ZipfianDistribution:
    """Zipf over ``n`` items with exponent ``alpha``; rank scattered by id."""

    def __init__(
        self,
        n: int,
        alpha: float,
        rng: DeterministicRng,
        scatter: bool = True,
    ) -> None:
        if n <= 0:
            raise WorkloadError("zipf needs at least one item")
        if alpha < 0:
            raise WorkloadError("alpha must be non-negative")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        cdf = list(itertools.accumulate((r + 1) ** -alpha for r in range(n)))
        total = cdf[-1]
        self._cdf = [x / total for x in cdf]
        if scatter:
            self._rank_to_item = list(range(n))
            rng.child(0xC0FFEE).shuffle(self._rank_to_item)
        else:
            self._rank_to_item = None

    def sample_rank(self) -> int:
        """Draw a zipf rank (0 = hottest)."""
        return bisect.bisect_left(self._cdf, self._rng.random())

    def sample(self) -> int:
        """Draw an item id."""
        rank = self.sample_rank()
        if self._rank_to_item is None:
            return rank
        return self._rank_to_item[rank]

    def item_for_rank(self, rank: int) -> int:
        """The item id occupying a given hotness rank."""
        if self._rank_to_item is None:
            return rank
        return self._rank_to_item[rank]

    def hottest(self, k: int) -> list[int]:
        """The ``k`` most frequently drawn item ids."""
        return [self.item_for_rank(r) for r in range(min(k, self.n))]

    def access_probability(self, rank: int) -> float:
        """Probability mass of the item at ``rank``."""
        prev = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - prev


class UniformDistribution:
    """Uniform over ``n`` items."""

    def __init__(self, n: int, rng: DeterministicRng) -> None:
        if n <= 0:
            raise WorkloadError("uniform needs at least one item")
        self.n = n
        self._rng = rng

    def sample(self) -> int:
        return self._rng.randrange(self.n)


class HotSetDistribution:
    """``hot_access_frac`` of draws land uniformly in a ``hot_frac`` subset.

    The hot subset is chosen by scattering: hot items are spread across the
    id space, reproducing "hot tuples scattered throughout the table, with
    as few as one hot tuple per data page" (§3.1).
    """

    def __init__(
        self,
        n: int,
        hot_frac: float,
        hot_access_frac: float,
        rng: DeterministicRng,
    ) -> None:
        if n <= 0:
            raise WorkloadError("hotset needs at least one item")
        if not 0.0 < hot_frac <= 1.0:
            raise WorkloadError("hot_frac must be in (0, 1]")
        if not 0.0 <= hot_access_frac <= 1.0:
            raise WorkloadError("hot_access_frac must be in [0, 1]")
        self.n = n
        self._rng = rng
        self._hot_access_frac = hot_access_frac
        n_hot = max(1, round(n * hot_frac))
        ids = list(range(n))
        rng.child(0x1107).shuffle(ids)
        self._hot = ids[:n_hot]
        self._cold = ids[n_hot:]
        self._hot_set = set(self._hot)

    @property
    def hot_ids(self) -> list[int]:
        return list(self._hot)

    def sample(self) -> int:
        if not self._cold or self._rng.random() < self._hot_access_frac:
            return self._rng.choice(self._hot)
        return self._rng.choice(self._cold)

    def is_hot(self, item: int) -> bool:
        return item in self._hot_set
