"""Result and counter pins for cached-index lookups under every projection
shape.

A seeded mix of ``Table.lookup`` and ``Table.lookup_many`` calls runs over
a cached index on a composite key, in 1 KiB pages, with inserts, deletes
and updates in between, so leaf windows move and cached items are
clobbered, invalidated and refilled.  The lookups use every projection
shape a caller can pass: ``None``, cached fields only in another order,
key and cached fields, key columns only, a projection the leaf cannot
answer, and a list.  The literals pin every result
``(values items in order, found, from_cache)`` as one sha256, the index's
``CachedIndexStats`` and the ``index_cache.swap.*`` counters.  A change
to how a hit is resolved, assembled or counted shows up here; the
literals were taken before the hit path was cut and must not be edited.
"""

import dataclasses
import hashlib

from repro import Database, Schema, UINT8, UINT32, UINT64, char
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution

SCHEMA = Schema.of(
    ("id", UINT64), ("ns", UINT8), ("title", char(12)),
    ("karma", UINT32), ("tag", char(6)), ("posts", UINT32), ("bio", char(8)),
)

PROJECTIONS = (
    None,
    ("posts", "tag", "karma"),
    ("title", "karma", "ns"),
    ("ns", "title"),
    ("karma", "bio"),
    ["tag", "title", "posts"],
)


def _key(i: int) -> tuple[int, str]:
    # scattered over the key space so leaves fill up between splits
    return (i % 3, f"t{(i * 7919) % 100_000:05d}")


def _row(i: int) -> dict:
    ns, title = _key(i)
    return {"id": i, "ns": ns, "title": title, "karma": (i * 7) % 500,
            "tag": f"g{i % 97}", "posts": i % 40, "bio": f"b{i % 13}"}


def _run_mix():
    db = Database(page_size=1024, data_pool_pages=64, seed=3)
    table = db.create_table("users", SCHEMA)
    db.create_index("users", "pk", ("id",))
    db.create_cached_index(
        "users", "by_name", ("ns", "title"),
        cached_fields=("karma", "tag", "posts"), invalidation_log_threshold=24,
    )
    live = list(range(400))
    for i in live:
        table.insert(_row(i))
    next_id = 400
    rng = DeterministicRng(2026)
    zipf = ZipfianDistribution(400, 0.9, rng.child(1))
    digest = hashlib.sha256()
    results = 0

    def note(result) -> None:
        nonlocal results
        values = None if result.values is None else tuple(result.values.items())
        digest.update(repr((values, result.found, result.from_cache)).encode())
        results += 1

    def pick() -> int:
        if rng.random() < 0.05:
            return next_id + rng.randrange(50)  # not inserted (yet): a miss
        return live[zipf.sample() % len(live)]

    for _ in range(5_000):
        draw = rng.random()
        project = PROJECTIONS[rng.randrange(len(PROJECTIONS))]
        if draw < 0.70:
            note(table.lookup("by_name", _key(pick()), project))
        elif draw < 0.80:
            keys = [_key(pick()) for _ in range(1 + rng.randrange(7))]
            for result in table.lookup_many("by_name", keys, project):
                note(result)
        elif draw < 0.92:
            table.insert(_row(next_id))
            live.append(next_id)
            next_id += 1
        elif draw < 0.96:
            i = live[rng.randrange(len(live))]
            table.update("pk", i, {"karma": rng.randrange(10_000)})
        else:
            table.delete("pk", live.pop(rng.randrange(len(live))))
    index = table.index("by_name")
    swap = db.metrics.snapshot()["index_cache"]["swap"]
    return results, digest.hexdigest(), dataclasses.astuple(index.stats), swap


def test_every_projection_shape_results_and_counters_pinned():
    results, digest, stats, swap = _run_mix()
    # every outcome is walked: hits, heap answers, misses, fills
    assert min(stats[:6]) > 0, stats
    assert (results, stats) == (PINNED_RESULTS, PINNED_STATS)
    assert swap == PINNED_SWAP
    assert digest == PINNED_DIGEST


PINNED_RESULTS = 5379
#: CachedIndexStats: (lookups, found, answered_from_cache, heap_fetches,
#: not_answerable, cache_fills, fills_skipped_latch, fills_skipped_admission)
PINNED_STATS = (5314, 5029, 1194, 3835, 1569, 3481, 0, 0)
PINNED_SWAP = {
    "evictions": 848, "hit": 1194, "inserts": 3481, "miss": 2266,
    "probes": 3460, "promotions": 418, "skipped_no_room": 354,
}
PINNED_DIGEST = (
    "146ad62492f9f68e189cb4ee0649451edd6bbaa5958596f838c59b29c57a9565"
)
