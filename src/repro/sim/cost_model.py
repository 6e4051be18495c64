"""Deterministic cost model: the substitute for the authors' testbed.

The paper's Figures 2(b), 2(c), and 3 report wall-clock per-lookup costs on
the authors' hardware.  We cannot (and need not) reproduce absolute times
from Python; what must hold is the *shape*: which configuration wins, where
lines cross, and the approximate factors.  Those are fully determined by
four latency constants:

* ``index_descent_ns`` — traversing the in-memory index to a leaf.
* ``cache_probe_ns`` — scanning a leaf's cache slots (the paper measures
  this overhead as ~0.3 µs in Fig. 2c).
* ``bp_access_ns`` — fetching a tuple from a buffer-pool-resident heap
  page.  Calibrated from Fig. 2c: the cache/nocache crossover sits at a
  ~35% cache hit rate, i.e. ``cache_probe = 0.35 × bp_access``.
* ``disk_read_ns`` — a random page read on a buffer-pool miss (~ms scale).

With these, Fig. 2c's end-to-end 2.7× improvement at 100% cache hit rate
and Fig. 2b's orders-of-magnitude spread across buffer-pool hit rates both
emerge from the model rather than being painted on.

The model doubles as the buffer pool's :class:`~repro.storage.buffer_pool.
CostHook`, so full-engine experiments (Fig. 3) charge the same constants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostPreset:
    """Latency constants, in simulated nanoseconds."""

    index_descent_ns: float = 28.0
    cache_probe_ns: float = 300.0
    bp_access_ns: float = 857.0
    disk_read_ns: float = 5_000_000.0
    disk_write_ns: float = 5_000_000.0
    #: Fixed per-query execution overhead (parse/plan/execute).  Zero for
    #: the Fig-2 micro-benchmarks, which time the storage path alone;
    #: the Fig-3 end-to-end experiment uses a MySQL-era ~0.4 ms so its
    #: speedup ratios are measured against a realistic per-query floor,
    #: as the paper's were.
    query_overhead_ns: float = 0.0

#: Constants calibrated to the paper's Figure 2(c):
#: overhead 0.3 us, crossover at ~35% hit rate, 2.7x at 100%.
PAPER_PRESET = CostPreset()

#: End-to-end preset for Figure 3: same storage constants plus the
#: per-query execution floor.
END_TO_END_PRESET = CostPreset(query_overhead_ns=400_000.0)


class CostModel:
    """A simulated clock charged per storage event.

    Implements the buffer pool's cost hook protocol (``on_bp_hit`` /
    ``on_bp_miss`` / ``on_disk_write``) and offers explicit charges for the
    index-path events the buffer pool cannot see (descents, cache probes).
    It keeps no event counts: the pool and the index path own theirs.
    """

    def __init__(self, preset: CostPreset = PAPER_PRESET) -> None:
        self.preset = preset
        #: Simulated time elapsed since construction or :meth:`reset`.
        self.now_ns = 0.0

    # -- clock --------------------------------------------------------------

    def reset(self) -> None:
        """Zero the clock."""
        self.now_ns = 0.0

    def charge(self, ns: float) -> None:
        """Advance the clock by an arbitrary amount (experiment glue)."""
        self.now_ns += ns

    # -- buffer-pool hook protocol -------------------------------------------

    def on_bp_hit(self) -> None:
        self.now_ns += self.preset.bp_access_ns

    def on_bp_miss(self) -> None:
        self.now_ns += self.preset.bp_access_ns + self.preset.disk_read_ns

    def on_disk_write(self) -> None:
        self.now_ns += self.preset.disk_write_ns

    # -- index-path charges ----------------------------------------------------

    def on_query(self) -> None:
        """Charge the fixed per-query execution overhead."""
        self.now_ns += self.preset.query_overhead_ns

    def on_index_descent(self) -> None:
        """Charge one in-memory root-to-leaf traversal."""
        self.now_ns += self.preset.index_descent_ns

    def on_cache_probe(self) -> None:
        """Charge one scan of a leaf's cache slots (§2.1.1)."""
        self.now_ns += self.preset.cache_probe_ns

    # -- analytic expectations (used by Fig 2b/2c and their tests) -----------

    def expected_lookup_ns(
        self, cache_hit_rate: float, bp_hit_rate: float, cached: bool = True
    ) -> float:
        """Closed-form per-lookup cost at the given hit rates.

        ``cached=False`` models the paper's ``nocache`` baseline: every
        lookup pays the buffer-pool access (and the disk read on a pool
        miss), with no probe overhead.
        """
        p = self.preset
        heap_access = p.bp_access_ns + (1.0 - bp_hit_rate) * p.disk_read_ns
        if not cached:
            return p.index_descent_ns + heap_access
        return (
            p.index_descent_ns
            + p.cache_probe_ns
            + (1.0 - cache_hit_rate) * heap_access
        )
