"""The Fig-2a simulator must reflect the byte-level implementation.

``SwapCacheSimulator`` (used for the hit-rate sweeps because it runs in
milliseconds) and the real ``IndexCache``-in-leaf-pages machinery claim to
implement the same §2.1.1 algorithm.  This test drives both with the same
zipf workload at the same aggregate capacity and requires their hit rates
to agree — the engine may run somewhat lower because its capacity is
fragmented per leaf (a tuple can only be cached in *its* leaf), which the
abstract model doesn't capture.
"""

from __future__ import annotations

import pytest

from repro.btree.tree import BPlusTree
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.simulator import SwapCacheSimulator
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution

SCHEMA = Schema.of(
    ("id", UINT64),
    ("val", UINT32),
    ("pad", char(16)),
)


@pytest.mark.parametrize("alpha", [0.8, 1.2])
def test_simulator_tracks_engine_hit_rate(alpha):
    n_rows = 2_500
    n_lookups = 15_000
    project = ("id", "val", "pad")

    # Real engine.
    pool = BufferPool(SimulatedDisk(4096), 1 << 20)
    heap = HeapFile(pool)
    tree = BPlusTree(pool, key_size=8, value_size=8)
    index = CachedBTree(
        tree, heap, SCHEMA, ("id",), ("val", "pad"),
        rng=DeterministicRng(1),
    )
    table = Table("t", SCHEMA, heap)
    table.attach_index("pk", index)
    ids = list(range(n_rows))
    DeterministicRng(2).shuffle(ids)
    for i in ids:
        table.insert({"id": i, "val": i % 89, "pad": "p"})

    zipf = ZipfianDistribution(n_rows, alpha, DeterministicRng(3))
    for _ in range(n_lookups):  # warm
        index.lookup(zipf.sample(), project)
    index.stats.found = 0
    index.stats.answered_from_cache = 0
    for _ in range(n_lookups):
        index.lookup(zipf.sample(), project)
    engine_rate = index.stats.cache_answer_rate

    # Abstract simulator at the engine's aggregate capacity.
    capacity = index.cache_capacity_total()
    sim = SwapCacheSimulator(capacity, rng=DeterministicRng(4))
    zipf2 = ZipfianDistribution(n_rows, alpha, DeterministicRng(3))
    for _ in range(n_lookups):
        sim.lookup(zipf2.sample())
    sim.reset_counters()
    for _ in range(n_lookups):
        sim.lookup(zipf2.sample())
    sim_rate = sim.hit_rate

    # Fragmentation can only hurt the engine; agreement within 12 points.
    assert engine_rate <= sim_rate + 0.03
    assert engine_rate == pytest.approx(sim_rate, abs=0.12)
