"""Latch-contention simulation (§2.1.3).

The paper's concern: turning every index-leaf read into a (cache) write
could raise latch contention.  Its answer: cache writes take only short
latches, and a write simply *gives up* if the latch is not immediately
available — correctness never depends on a cache write landing.

We are single-threaded, so instead of real latches we inject contention
probabilistically: with probability ``contention_prob`` a try-latch fails
and the cache write is skipped.  Experiments use this to confirm the
graceful degradation property (hit rate falls smoothly, nothing breaks).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.util.rng import DeterministicRng


class LatchSimulator:
    """Injectable try-latch: fails with a configured probability."""

    def __init__(
        self, contention_prob: float = 0.0, rng: DeterministicRng | None = None
    ) -> None:
        if not 0.0 <= contention_prob <= 1.0:
            raise ReproError("contention_prob must be in [0, 1]")
        self.contention_prob = contention_prob
        self._rng = rng if rng is not None else DeterministicRng(0)
        self.acquired = 0
        self.given_up = 0

    def try_acquire(self) -> bool:
        """Attempt the short-term latch for a cache write.

        Returns False (and counts a give-up) when simulated contention
        wins; the caller must skip its cache write, never block.
        """
        if self.contention_prob and self._rng.random() < self.contention_prob:
            self.given_up += 1
            return False
        self.acquired += 1
        return True

