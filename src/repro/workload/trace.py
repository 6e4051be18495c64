"""Operation traces and the Figure 2(a) scenario drivers.

Figure 2(a) compares two scenarios over 100k zipf lookups:

* **Swap** — a read-only workload: the cache keeps its full size.
* **Shrink** — a read/insert workload "that overwrites half of the index
  cache at a constant rate over the duration of the experiment".

:func:`run_swap_scenario` and :func:`run_shrink_scenario` drive a
:class:`~repro.core.index_cache.simulator.SwapCacheSimulator` through each,
returning the measured hit rate; the experiment module sweeps cache sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.index_cache.simulator import SwapCacheSimulator
from repro.errors import WorkloadError
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution


class OpKind(Enum):
    """Kinds of operations a trace can carry."""

    LOOKUP = "lookup"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class Operation:
    """One trace entry."""

    kind: OpKind
    key: object
    row: dict[str, object] | None = None
    changes: dict[str, object] | None = None


@dataclass(frozen=True)
class ScenarioResult:
    """Hit-rate outcome of a Fig-2(a) scenario run."""

    capacity_start: int
    capacity_end: int
    lookups: int
    hit_rate: float


def run_swap_scenario(
    n_items: int,
    capacity: int,
    n_lookups: int,
    alpha: float = 0.5,
    bucket_slots: int = 4,
    seed: int = 0,
) -> ScenarioResult:
    """Read-only workload: constant cache size (the paper's ``Swap``),
    measured after a warm-up of ``n_lookups // 2`` lookups."""
    sim = SwapCacheSimulator(
        capacity, bucket_slots=bucket_slots, rng=DeterministicRng(seed)
    )
    zipf = ZipfianDistribution(n_items, alpha, DeterministicRng(seed + 1))
    for _ in range(n_lookups // 2):
        sim.lookup(zipf.sample())
    sim.reset_counters()
    for _ in range(n_lookups):
        sim.lookup(zipf.sample())
    return ScenarioResult(
        capacity_start=capacity,
        capacity_end=sim.capacity,
        lookups=n_lookups,
        hit_rate=sim.hit_rate,
    )


def run_shrink_scenario(
    n_items: int,
    capacity: int,
    n_lookups: int,
    alpha: float = 0.5,
    bucket_slots: int = 4,
    seed: int = 0,
    shrink_fraction: float = 0.5,
) -> ScenarioResult:
    """Read/insert workload: index growth overwrites ``shrink_fraction``
    of the cache at a constant rate over the run (the paper's ``Shrink``),
    measured after a warm-up of ``n_lookups // 2`` lookups.
    """
    if not 0.0 <= shrink_fraction < 1.0:
        raise WorkloadError("shrink_fraction must be in [0, 1)")
    sim = SwapCacheSimulator(
        capacity, bucket_slots=bucket_slots, rng=DeterministicRng(seed)
    )
    zipf = ZipfianDistribution(n_items, alpha, DeterministicRng(seed + 1))
    for _ in range(n_lookups // 2):
        sim.lookup(zipf.sample())
    sim.reset_counters()
    to_remove = int(capacity * shrink_fraction)
    # Spread the removals evenly across the run.
    removal_every = n_lookups / to_remove if to_remove else float("inf")
    next_removal = removal_every
    removed = 0
    for i in range(n_lookups):
        sim.lookup(zipf.sample())
        while removed < to_remove and i + 1 >= next_removal:
            sim.shrink(1)
            removed += 1
            next_removal += removal_every
    return ScenarioResult(
        capacity_start=capacity,
        capacity_end=sim.capacity,
        lookups=n_lookups,
        hit_rate=sim.hit_rate,
    )
