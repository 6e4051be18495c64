"""Shared low-level utilities: deterministic RNG, bit/varint packing, stats."""

from repro.util.rng import DeterministicRng
from repro.util.stats import StreamingStats
from repro.util.units import fmt_bytes, GiB, KiB, MiB

__all__ = [
    "DeterministicRng",
    "StreamingStats",
    "fmt_bytes",
    "KiB",
    "MiB",
    "GiB",
]
