"""Streaming statistics used by experiments.

Experiment harnesses accumulate per-lookup costs and hit/miss counters; this
module gives them numerically stable mean/variance (Welford) without pulling
in heavyweight dependencies on the hot path.  (Distributions live in
:class:`repro.obs.registry.Histogram`.)
"""

from __future__ import annotations

import math


class StreamingStats:
    """Welford-style running mean/variance with min/max tracking."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

