"""Byte and decision pins for the Swap policy under a heavy, mixed load.

``test_database_disk_bytes_pinned`` (tests/test_storage_page.py) serves two
hits per key: almost no promotions and never an eviction from a full
window.  The pins here walk every Swap branch — promote into an empty
slot, promote by exchange, evict when full, skip when the window holds no
slot, zero on a logged predicate, zero on an epoch bump — so any change to
how slots are ranked, chosen or moved shows up as a different byte or a
different decision.  The decision and counter literals were taken before
the ranking was made arithmetic and must not be edited.  The two sha256
digests moved once, when the CRC-16 item checksum replaced ``h·31+b``
(cache bytes only: every decision and counter stayed); ``PINNED_LEAF_WINDOWS``
was taken with ``h·31+b``, before that change.
"""

import hashlib

from repro import Database, Schema, UINT32, UINT64, char
from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.policy import SwapPolicy
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution


def _username(i: int) -> str:
    # scattered over the key space so leaves fill up between splits
    return f"u{(i * 7919) % 100_000:05d}"


def _row(i: int) -> dict:
    return {"user_id": i, "username": _username(i),
            "karma": (i * 7) % 500, "posts": i % 40}


def test_heavy_swap_workload_disk_bytes_and_counters_pinned():
    db = Database(page_size=1024, data_pool_pages=64, seed=11)
    users = db.create_table("users", Schema.of(
        ("user_id", UINT64), ("username", char(12)),
        ("karma", UINT32), ("posts", UINT32),
    ))
    db.create_index("users", "users_pk", ("user_id",))
    db.create_cached_index(
        "users", "users_by_name", ("username",),
        cached_fields=("karma", "posts"), invalidation_log_threshold=16,
    )
    live = list(range(600))
    for i in live:
        users.insert(_row(i))
    next_id = 600
    rng = DeterministicRng(2011)
    zipf = ZipfianDistribution(600, 0.9, rng.child(1))
    lookups = 0
    for _ in range(7_000):
        draw = rng.random()
        if draw < 0.80:
            i = live[zipf.sample() % len(live)]
            got = users.lookup("users_by_name", _username(i), ("karma", "posts"))
            assert got.found and got.values["posts"] == i % 40
            lookups += 1
        elif draw < 0.84:
            batch = [live[zipf.sample() % len(live)] for _ in range(6)]
            got = users.lookup_many(
                "users_by_name", [_username(i) for i in batch], ("posts",)
            )
            assert [r.values["posts"] for r in got] == [i % 40 for i in batch]
            lookups += len(batch)
        elif draw < 0.975:
            users.insert(_row(next_id))
            live.append(next_id)
            next_id += 1
        elif draw < 0.99:
            i = live[rng.randrange(len(live))]
            users.update("users_pk", i, {"karma": rng.randrange(10_000)})
        else:
            i = live.pop(rng.randrange(len(live)))
            users.delete("users_pk", i)
    assert lookups >= 5_000
    counters = db.metrics.snapshot()["index_cache"]
    swap, invalidation = counters["swap"], counters["invalidation"]
    walked = (
        swap["promotions"], swap["evictions"], swap["inserts"],
        swap["skipped_no_room"], invalidation["pages_zeroed"],
        invalidation["csn"],
        users.index("users_by_name").stats.answered_from_cache,
    )
    assert all(count > 0 for count in walked), walked
    db.data_pool.flush_all()
    db.index_pool.flush_all()
    digest = hashlib.sha256()
    for page_id in range(db.disk.num_pages):
        digest.update(db.disk.peek(page_id))
    assert (db.disk.num_pages, lookups, walked) == PINNED_ENGINE_COUNTS
    assert digest.hexdigest() == PINNED_ENGINE_DIGEST


class _RecordingSwap(SwapPolicy):
    """SwapPolicy that writes down every decision it hands the cache."""

    def __init__(self, rng, bucket_slots):
        super().__init__(rng, bucket_slots)
        self.decisions = []
        #: per fill, what ``occupancy`` classified: "#" occupied, "." free
        self.windows = []

    def choose_slot(self, geo, free, occupied, page_key):
        self.windows.append(
            "".join("#" if s in occupied else "." for s in range(geo.num_slots))
        )
        assert (free, occupied) == _window_lists(self.windows[-1])
        slot = super().choose_slot(geo, free, occupied, page_key)
        self.decisions.append(("put", slot))
        return slot

    def on_hit(self, geo, slot, page_key):
        target = super().on_hit(geo, slot, page_key)
        self.decisions.append(("hit", slot, target))
        return target


def _window_lists(window: str) -> tuple[list[int], list[int]]:
    """``(free, occupied)`` as ``occupancy`` returns them for one window."""
    return (
        [s for s, c in enumerate(window) if c == "."],
        [s for s, c in enumerate(window) if c == "#"],
    )


def _run_scripted_leaf():
    """A hand-built leaf, a seeded policy and a fixed script of inserts and
    probes, with the leaf growing twice mid-script so slots fall out of the
    geometry and the periphery is clobbered."""
    page = SlottedPage.format(bytearray(512), 1, PageType.BTREE_LEAF)
    for i in range(4):
        page.insert_at(i, bytes([i + 1]) * 20)
    policy = _RecordingSwap(DeterministicRng(5), bucket_slots=3)
    cache = IndexCache(payload_size=6, entry_size=20, policy=policy)
    script = DeterministicRng(17)
    tids = [(1000 + i).to_bytes(8, "little") for i in range(40)]
    slots_seen = []
    for step in range(260):
        if step in (120, 200):
            for _ in range(4):  # leaf grows: window shrinks from both ends
                page.insert_at(page.slot_count, bytes([step % 251]) * 20)
        slots_seen.append(cache.capacity(page))
        tid = tids[min(script.randrange(40), script.randrange(40))]
        if cache.probe(page, tid) is None:
            cache.insert(page, tid, tid[:6])
    return page, cache, policy, slots_seen


def test_scripted_leaf_swap_decisions_pinned():
    page, cache, policy, slots_seen = _run_scripted_leaf()
    stats = cache.stats
    assert min(stats.promotions, stats.evictions, stats.inserts) > 0
    assert sorted(set(slots_seen), reverse=True) == PINNED_LEAF_CAPACITIES
    assert (stats.hits, stats.misses, stats.promotions, stats.evictions,
            stats.inserts) == PINNED_LEAF_STATS
    assert policy.decisions == PINNED_LEAF_DECISIONS
    assert hashlib.sha256(bytes(page.buffer)).hexdigest() == PINNED_LEAF_DIGEST


def test_scripted_leaf_fill_occupancy_pinned():
    """Every fill's ``(free, occupied)`` split of the window, slot by slot:
    the classification a checksum change must leave alone."""
    _, cache, policy, _ = _run_scripted_leaf()
    assert len(policy.windows) == cache.stats.inserts
    assert policy.windows == PINNED_LEAF_WINDOWS


#: (disk pages, lookups, (promotions, evictions, inserts, skipped_no_room,
#: pages_zeroed, csn bumps, answered_from_cache))
PINNED_ENGINE_COUNTS = (172, 7299, (1079, 747, 3465, 531, 555, 10, 3225))
PINNED_ENGINE_DIGEST = (
    "d6a7a7520f7d99e097429e338b3089a178d1919f009bd18384f6cfcc1701e35e"
)
PINNED_LEAF_CAPACITIES = [23, 17, 11]
#: (hits, misses, promotions, evictions, inserts)
PINNED_LEAF_STATS = (150, 110, 120, 87, 110)
PINNED_LEAF_DIGEST = (
    "f7f18ad29e05445a6134e3060d8b6f1b2c24cd955b68985b6f4250bf83943d6a"
)
#: ("put", chosen slot) per insert, ("hit", slot, swap target) per hit
PINNED_LEAF_DECISIONS = [
    ('put', 19), ('put', 8), ('put', 12), ('put', 18), ('put', 0), ('put', 17),
    ('put', 9), ('put', 2), ('put', 22), ('put', 4), ('hit', 22, 18),
    ('put', 10), ('put', 14), ('put', 6), ('put', 15), ('hit', 8, 6),
    ('put', 3), ('put', 11), ('hit', 10, 0), ('hit', 8, 6), ('hit', 10, 0),
    ('put', 13), ('hit', 4, None), ('hit', 4, None), ('hit', 13, 10),
    ('put', 5), ('put', 20), ('hit', 14, 9), ('hit', 17, 12), ('hit', 4, None),
    ('hit', 15, 12), ('put', 21), ('put', 1), ('put', 7), ('hit', 18, 15),
    ('hit', 8, 5), ('put', 16), ('put', 21), ('put', 21), ('hit', 22, 18),
    ('hit', 8, 1), ('hit', 0, 1), ('hit', 18, 15), ('hit', 4, None),
    ('put', 21), ('hit', 12, 9), ('hit', 1, 2), ('put', 21), ('hit', 18, 16),
    ('put', 22), ('hit', 22, 18), ('hit', 17, 13), ('hit', 17, 13),
    ('hit', 20, 15), ('hit', 4, None), ('hit', 5, 3), ('hit', 4, None),
    ('hit', 22, 19), ('hit', 5, 3), ('hit', 14, 10), ('hit', 9, 7),
    ('hit', 3, None), ('put', 21), ('put', 22), ('hit', 10, 0),
    ('hit', 19, 16), ('hit', 4, None), ('hit', 18, 16), ('hit', 22, 19),
    ('put', 22), ('put', 22), ('hit', 7, 5), ('hit', 12, 10), ('hit', 1, 4),
    ('put', 21), ('hit', 2, None), ('put', 21), ('put', 22), ('hit', 1, 3),
    ('hit', 18, 17), ('hit', 19, 16), ('hit', 4, None), ('hit', 18, 16),
    ('hit', 10, 0), ('put', 22), ('put', 22), ('hit', 1, 4), ('put', 21),
    ('hit', 12, 10), ('hit', 8, 5), ('hit', 16, 14), ('hit', 22, 18),
    ('put', 21), ('hit', 9, 0), ('hit', 18, 15), ('hit', 10, 7),
    ('hit', 14, 10), ('hit', 7, 6), ('hit', 7, 1), ('hit', 3, None),
    ('put', 22), ('hit', 6, 4), ('hit', 2, None), ('hit', 14, 9),
    ('hit', 14, 11), ('hit', 2, None), ('put', 22), ('hit', 2, None),
    ('hit', 18, 16), ('hit', 3, None), ('hit', 3, None), ('put', 21),
    ('hit', 12, 10), ('put', 21), ('hit', 0, 5), ('hit', 19, 16),
    ('hit', 4, None), ('hit', 6, 2), ('put', 22), ('hit', 7, 5), ('put', 16),
    ('put', 16), ('put', 15), ('put', 16), ('put', 16), ('hit', 7, 0),
    ('hit', 8, 4), ('put', 15), ('put', 15), ('hit', 10, 8), ('hit', 12, 11),
    ('hit', 1, None), ('put', 16), ('put', 16), ('put', 15), ('hit', 11, 8),
    ('hit', 8, 4), ('hit', 6, 4), ('hit', 10, 8), ('put', 16), ('hit', 0, 2),
    ('put', 15), ('hit', 6, 5), ('put', 16), ('hit', 8, 0), ('hit', 14, 10),
    ('put', 16), ('put', 15), ('hit', 9, 6), ('put', 15), ('hit', 3, None),
    ('hit', 7, 0), ('hit', 2, None), ('hit', 1, None), ('put', 16),
    ('hit', 2, None), ('hit', 2, None), ('put', 15), ('hit', 7, 4),
    ('hit', 5, 1), ('put', 15), ('hit', 4, 1), ('put', 16), ('hit', 4, 2),
    ('put', 15), ('hit', 11, 7), ('hit', 7, 0), ('put', 15), ('put', 15),
    ('hit', 5, 3), ('hit', 0, 3), ('hit', 5, 2), ('put', 16), ('hit', 8, 5),
    ('put', 15), ('put', 16), ('hit', 6, 0), ('hit', 14, 11), ('put', 16),
    ('put', 16), ('hit', 3, None), ('hit', 16, 13), ('hit', 4, 3),
    ('hit', 13, 10), ('hit', 15, 13), ('put', 15), ('put', 15), ('hit', 6, 0),
    ('put', 15), ('put', 16), ('put', 16), ('hit', 7, 4), ('hit', 15, 12),
    ('hit', 7, 0), ('hit', 15, 13), ('hit', 2, None), ('put', 16),
    ('hit', 16, 12), ('hit', 13, 10), ('hit', 9, 8), ('put', 9), ('put', 10),
    ('hit', 8, 4), ('put', 10), ('put', 10), ('hit', 8, 4), ('hit', 10, 8),
    ('hit', 5, 0), ('put', 10), ('hit', 0, None), ('put', 10), ('hit', 7, 5),
    ('hit', 8, 3), ('hit', 2, None), ('hit', 4, 0), ('hit', 3, 1), ('put', 10),
    ('put', 10), ('put', 10), ('put', 10), ('put', 10), ('hit', 8, 4),
    ('put', 10), ('hit', 3, 2), ('put', 10), ('put', 10), ('put', 10),
    ('put', 10), ('put', 9), ('put', 10), ('put', 10), ('put', 10),
    ('hit', 0, None), ('hit', 5, 0), ('put', 9), ('hit', 9, 8), ('put', 9),
    ('put', 9), ('hit', 9, 7), ('hit', 4, 2), ('hit', 0, None), ('hit', 6, 4),
    ('hit', 6, 5), ('hit', 8, 3), ('hit', 9, 8), ('hit', 6, 5), ('hit', 4, 0),
    ('put', 10), ('hit', 7, 3), ('put', 10), ('hit', 9, 7), ('put', 10),
    ('put', 9), ('put', 9), ('hit', 0, None), ('put', 9), ('hit', 5, 0),
    ('put', 10), ('put', 9), ('put', 9),
]
#: per fill, the window as ``occupancy`` split it: "#" occupied, "." free
PINNED_LEAF_WINDOWS = [
    ".......................", "...................#...",
    "........#..........#...", "........#...#......#...",
    "........#...#.....##...", "#.......#...#.....##...",
    "#.......#...#....###...", "#.......##..#....###...",
    "#.#.....##..#....###...", "#.#.....##..#....###..#",
    "#.#.#...##..#....###..#", "#.#.#...###.#....###..#",
    "#.#.#...###.#.#..###..#", "#.#.#.#.###.#.#..###..#",
    "#.#.#.#.###.#.##.###..#", "#.###.#.###.#.##.###..#",
    "#.###.#.#####.##.###..#", "#.###.#.########.###..#",
    "#.#####.########.###..#", "#.#####.########.####.#",
    "#.#####.########.######", "#######.########.######",
    "################.######", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################",
    "#######################", "#######################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "#################", "#################", "#################",
    "###########", "###########", "###########", "###########", "###########",
    "###########", "###########", "###########", "###########", "###########",
    "###########", "###########", "###########", "###########", "###########",
    "###########", "###########", "###########", "###########", "###########",
    "###########", "###########", "###########", "###########", "###########",
    "###########", "###########", "###########", "###########", "###########",
    "###########", "###########",
]
