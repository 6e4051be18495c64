"""The order of pins is pinned before the pin bracket changes shape.

A seeded mix over one small :class:`~repro.Database` (WAL on, a pool of
ten frames so evictions and dirty write-backs happen all the time) with
``BufferPool.page`` / ``fetch`` / ``unpin`` / ``new_page`` wrapped *on the
instance*.  A ``with pool.page(...)`` bracket is logged at the bracket: a
``fetch`` at the call and an ``unpin`` at its exit, with the ``dirty`` and
``lsn`` the exit applies (a write bracket whose body raises releases
clean), whether or not the pool's own ``page`` goes through ``fetch`` and
``unpin``.  Only the outermost wrapped entry logs, so no pin is logged
twice.  ``pages_many`` and direct callers reach ``fetch`` / ``unpin``
themselves.  The record ``(call, page_id, dirty, lsn)`` is then the
complete story of which page was pinned when, how it was released and
with which LSN.  Any change to how a bracket is built must replay it to
the byte: same pins in the same order, same ``dirty``/``lsn`` at release,
hence the same hits, misses, evictions, write-backs, simulated ns and disk
image.  The literals were taken with ``page`` / ``pages_many`` still
``@contextmanager`` generators and must not be edited.
"""

import hashlib

import pytest

from repro import Database, Schema, UINT32, UINT64, char
from repro.util.rng import DeterministicRng


class _BodyFailed(Exception):
    """Raised on purpose inside a ``dirty=True`` bracket."""


def _username(i: int) -> str:
    return f"u{(i * 7919) % 100_000:05d}"


def _row(i: int) -> dict:
    return {"user_id": i, "username": _username(i),
            "karma": (i * 7) % 500, "posts": i % 40}


def _record_pins(pool, log: list) -> None:
    page, fetch, unpin, new_page = pool.page, pool.fetch, pool.unpin, pool.new_page
    depth = [0]  # > 0 inside a wrapped entry: inner pool calls log nothing

    def outermost(entry, *args, **kwargs):
        depth[0] += 1
        try:
            return entry(*args, **kwargs)
        finally:
            depth[0] -= 1

    class Bracket:
        def __init__(self, page_id, dirty, lsn, handle):
            self.page_id, self.dirty, self.lsn = page_id, dirty, lsn
            self.handle = handle

        def __enter__(self):
            return self.handle.__enter__()

        def __exit__(self, exc_type, exc, tb):
            ok = exc_type is None
            log.append(("unpin", self.page_id, self.dirty and ok,
                        self.lsn if self.dirty and ok else None))
            return outermost(self.handle.__exit__, exc_type, exc, tb)

    def recording_page(page_id, dirty=False, lsn=None):
        log.append(("fetch", page_id, None, None))
        handle = outermost(page, page_id, dirty=dirty, lsn=lsn)
        return Bracket(page_id, dirty, lsn, handle)

    def recording_fetch(page_id):
        if not depth[0]:
            log.append(("fetch", page_id, None, None))
        return outermost(fetch, page_id)

    def recording_unpin(page_id, dirty=False, lsn=None):
        if not depth[0]:
            log.append(("unpin", page_id, dirty, lsn))
        return outermost(unpin, page_id, dirty=dirty, lsn=lsn)

    def recording_new_page(page_type):
        page = outermost(new_page, page_type)
        log.append(("new_page", page.page_id, int(page_type), None))
        return page

    pool.page = recording_page
    pool.fetch = recording_fetch
    pool.unpin = recording_unpin
    pool.new_page = recording_new_page


def test_seeded_mix_replays_the_same_pins_in_the_same_order():
    db = Database(page_size=512, data_pool_pages=10, seed=22, wal=True)
    pool = db.data_pool
    assert db.index_pool is pool
    log: list = []
    _record_pins(pool, log)
    users = db.create_table("users", Schema.of(
        ("user_id", UINT64), ("username", char(12)),
        ("karma", UINT32), ("posts", UINT32),
    ))
    db.create_index("users", "users_pk", ("user_id",))
    db.create_cached_index(
        "users", "users_by_name", ("username",),
        cached_fields=("karma", "posts"), invalidation_log_threshold=16,
    )
    live = list(range(700))
    for i in live:
        users.insert(_row(i))
    pk_tree = users.index("users_pk").tree
    assert pk_tree.height >= 3, "an internal node must have split"
    next_id = 700
    rng = DeterministicRng(2022)
    for step in range(1_500):
        draw = rng.random()
        if draw < 0.30:
            i = live[rng.randrange(len(live))]
            assert users.lookup("users_pk", i).values["posts"] == i % 40
        elif draw < 0.55:
            i = live[rng.randrange(len(live))]
            got = users.lookup("users_by_name", _username(i), ("karma", "posts"))
            assert got.found and got.values["posts"] == i % 40
        elif draw < 0.62:
            batch = [live[rng.randrange(len(live))] for _ in range(6)]
            index = "users_pk" if step % 2 else "users_by_name"
            keys = batch if step % 2 else [_username(i) for i in batch]
            got = users.lookup_many(index, keys, ("posts",))
            assert [r.values["posts"] for r in got] == [i % 40 for i in batch]
        elif draw < 0.80:
            users.insert(_row(next_id))
            live.append(next_id)
            next_id += 1
        elif draw < 0.92:
            i = live[rng.randrange(len(live))]
            assert users.update("users_pk", i, {"karma": rng.randrange(10_000)})
        elif draw < 0.98:
            i = live.pop(rng.randrange(len(live)))
            assert users.delete("users_pk", i)
        else:
            # a heap scan abandoned in the middle of a page
            scan = users.heap.scan()
            for _ in range(1 + rng.randrange(5)):
                next(scan)
            scan.close()
            assert pool.pinned_pages == []
    # one body that raises inside a dirty=True bracket
    victim = users.heap.page_ids[3]
    before = None
    with pytest.raises(_BodyFailed):
        with pool.page(victim, dirty=True, lsn=db.wal.reserve_lsn()) as page:
            before = bytes(page.buffer)
            page.insert(b"half-applied")
            raise _BodyFailed
    with pool.page(victim) as page:
        assert bytes(page.buffer) == before
    assert pool.pinned_pages == []
    db.checkpoint()
    pool.flush_all()
    disk = hashlib.sha256()
    for page_id in range(db.disk.num_pages):
        disk.update(db.disk.peek(page_id))
    writebacks = db.metrics.snapshot()["bufferpool"]["writeback"]
    assert (len(log), hashlib.sha256(repr(log).encode()).hexdigest()) == PINNED_LOG
    assert (pool.hits, pool.misses, pool.evictions) == PINNED_POOL_COUNTS
    assert writebacks == PINNED_WRITEBACKS
    assert db.cost_model.now_ns == PINNED_SIM_NS
    assert (db.disk.num_pages, disk.hexdigest()) == PINNED_DISK


#: (records, sha256 of their repr)
PINNED_LOG = (
    38228, "bc603703ac1f857882526c99b29142b3bb3f808065078231e0748240582e5681"
)
#: (hits, misses, evictions)
PINNED_POOL_COUNTS = (11093, 7786, 8011)
PINNED_WRITEBACKS = 1993
PINNED_SIM_NS = 48911394079.0
#: (disk pages, sha256 over every page's bytes)
PINNED_DISK = (
    235, "b08d6de07cdbdd4a522cbb613d0630f439a8fe1b1ab8dfc309bfe821eae7e45b"
)
