"""Deterministic random-number helpers.

Every stochastic component in the library (cache placement, workload
generators, simulated contention) draws from a :class:`DeterministicRng`
seeded explicitly by the caller.  Experiments therefore reproduce exactly,
which is what lets the benchmark harness assert the *shape* of the paper's
figures rather than eyeballing noisy output.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with the handful of draws the library needs.

    Thin wrapper over :class:`random.Random` so that (a) call sites never
    touch the global ``random`` module and (b) we can derive independent
    child streams for sub-components without correlating them.
    """

    def __init__(self, seed: int = 0) -> None:
        #: The seed this stream was created with.
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def child(self, salt: int) -> "DeterministicRng":
        """Return an independent stream derived from this seed and ``salt``.

        Used to give each subsystem (cache, workload, contention injector)
        its own stream so adding draws in one place does not perturb another.
        """
        return DeterministicRng(hash((self.seed, int(salt))) & 0x7FFFFFFF)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range ``[lo, hi]``."""
        return self._rng.randint(lo, hi)

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``; ``n`` must be positive."""
        return self._rng.randrange(n)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher–Yates shuffle."""
        self._rng.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """``k`` distinct elements sampled without replacement."""
        return self._rng.sample(seq, k)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return self._rng.random() < p

    def bytes(self, n: int) -> bytes:
        """``n`` random bytes."""
        return self._rng.randbytes(n)

