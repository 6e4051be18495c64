"""What a cached-index hit does to the page: promotion moves verified bytes,
validation is lazy, assembly decodes only what is projected.

Each test states the behaviour of the implementation it replaced — the
``read_slot``/``write_slot``/``clear_slot`` swap, the validate-on-every-
lookup loop — in the test itself and asks for the same bytes.
"""

import pytest

from repro import Database
from repro.btree.node import LeafNode
from repro.btree.tree import BPlusTree
from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.cached_index import CachedBTree
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.core.index_cache.policy import CachePolicy
from repro.errors import QueryError
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng

PAYLOAD = 12
ENTRY = 24


def tid(n: int) -> bytes:
    return n.to_bytes(8, "little")


def payload(n: int) -> bytes:
    return bytes([n % 251]) * PAYLOAD


# -- promotion by byte move ---------------------------------------------------


class _PromoteTo(CachePolicy):
    """Sends every hit to one fixed slot."""

    def __init__(self, target: int) -> None:
        self.target = target

    def choose_slot(self, geo, free, occupied, page_key):
        return free[0] if free else None

    def on_hit(self, geo, slot, page_key):
        return self.target


def swap_as_before(cache: IndexCache, page, geo, a: int, b: int) -> None:
    """The replaced ``_swap_slots``: read both, rewrite both (4 checksums)."""
    item_a = cache.read_slot(page, geo, a)
    item_b = cache.read_slot(page, geo, b)
    assert item_a is not None
    if item_b is None:
        cache.write_slot(page, geo, b, *item_a)
        cache.clear_slot(page, geo, a)
    else:
        cache.write_slot(page, geo, b, *item_a)
        cache.write_slot(page, geo, a, *item_b)


def _clobber(page, geo, slot):
    off = geo.slot_offset(slot)
    page.buffer[off + 2 : off + 9] = b"keybyte"  # index growth landed mid-slot


@pytest.mark.parametrize("target_state", ("valid", "zeroed", "clobbered"))
def test_promotion_writes_the_bytes_the_rewrite_did(target_state):
    source, target = 9, 4
    page = SlottedPage.format(bytearray(1024), 3, PageType.BTREE_LEAF)
    cache = IndexCache(PAYLOAD, ENTRY, policy=_PromoteTo(target))
    geo = cache.geometry(page)
    for slot in (source, target, 0, 17):
        cache.write_slot(page, geo, slot, tid(slot), payload(slot))
    if target_state == "zeroed":
        cache.clear_slot(page, geo, target)
    elif target_state == "clobbered":
        _clobber(page, geo, target)
        stored = page.buffer[geo.slot_offset(target) + cache.item_size - 2 :][:2]
        assert stored != b"\x00\x00" and cache.read_slot(page, geo, target) is None
    expected = SlottedPage(bytearray(page.buffer))
    swap_as_before(cache, expected, geo, source, target)

    assert cache.probe(page, tid(source)) == payload(source)

    assert bytes(page.buffer) == bytes(expected.buffer)
    assert cache.stats.promotions == 1
    assert cache.read_slot(page, geo, target) == (tid(source), payload(source))
    moved_back = cache.read_slot(page, geo, source)
    assert moved_back == ((tid(target), payload(target))
                          if target_state == "valid" else None)
    if target_state != "valid":  # the vacated slot is zeroed, not left stale
        off = geo.slot_offset(source)
        assert bytes(page.buffer[off : off + cache.item_size]) == bytes(cache.item_size)


# -- lazy validation ------------------------------------------------------------

SCHEMA = Schema.of(
    ("id", UINT64), ("name", char(12)), ("score", UINT32), ("level", UINT32),
)


def build_table(invalidation, rows=0):
    pool = BufferPool(SimulatedDisk(1024), 1 << 20)
    tree = BPlusTree(pool, key_size=8, value_size=8)
    heap = HeapFile(pool)
    index = CachedBTree(
        tree, heap, SCHEMA, ("id",), ("score", "level"),
        rng=DeterministicRng(5), invalidation=invalidation,
    )
    table = Table("t", SCHEMA, heap)
    table.attach_index("pk", index)
    for i in range(rows):
        table.insert({"id": i, "name": f"n{i}", "score": i * 2, "level": i % 7})
    return table


def build(invalidation, rows=0):
    return build_table(invalidation, rows).index("pk")


def leaf_bytes(index) -> dict[int, bytes]:
    pool = index.tree.pool
    out = {}
    for page_id in index.tree.leaf_page_ids:
        with pool.page(page_id) as page:
            out[page_id] = bytes(page.buffer)
    return out


def test_hit_on_a_current_page_touches_only_the_swapped_slots(monkeypatch):
    index = build(CacheInvalidation(), rows=20)  # one leaf: the root
    for i in range(20):
        index.lookup(i, ("score",))  # miss + fill; the first one stamps
    (leaf_id,) = index.tree.leaf_page_ids
    with index.tree.pool.page(leaf_id) as page:
        geo = index.cache.geometry(page)
    base = geo.first_slot_index * geo.item_size
    reads = []
    real_read = SlottedPage.read
    monkeypatch.setattr(
        SlottedPage, "read",
        lambda self, slot: reads.append(slot) or real_read(self, slot),
    )
    promotions = 0
    for i in list(range(20)) * 3:
        before = leaf_bytes(index)[leaf_id]
        promoted = index.cache.stats.promotions
        reads.clear()
        result = index.lookup(i, ("score", "level"))
        assert result.from_cache and result.values == {"score": i * 2, "level": i % 7}
        # one directory entry: the RID of the key the binary search found
        assert len(reads) == 1
        after = leaf_bytes(index)[leaf_id]
        changed = [off for off in range(len(after)) if after[off] != before[off]]
        touched = {(off - base) // geo.item_size for off in changed}
        promoted = index.cache.stats.promotions - promoted
        promotions += promoted
        assert len(touched) <= 2 * promoted
        assert all(0 <= slot < geo.num_slots for slot in touched)
    assert promotions > 5


def eager_validate(index, key_value, batched=False) -> None:
    """What every lookup did before validation became lazy: read the leaf's
    first and last key and call ``validate_page``, current page or not
    (``lookup`` once it had found the key, ``lookup_many`` per leaf run)."""
    key = index.encode_key(key_value)
    with index.tree.pool.page(index.tree.find_leaf(key)) as page:
        leaf = LeafNode(page, index.tree.key_size, index.tree.value_size)
        if batched or leaf.find(key)[1]:
            index.invalidation.validate_page(
                page, index.cache, leaf.key_at(0), leaf.key_at(leaf.count - 1)
            )


def test_lazy_validation_equals_validating_on_every_lookup():
    tables = [build_table(CacheInvalidation(log_threshold=5), rows=200) for _ in range(2)]
    lazy, eager = (t.index("pk") for t in tables)
    assert len(lazy.tree.leaf_page_ids) >= 3
    script = DeterministicRng(23)
    for step in range(600):
        draw = script.random()
        # skewed toward the low leaves; keys from 200 up are absent
        key = min(script.randrange(230), script.randrange(230))
        if draw < 0.80:
            eager_validate(eager, key)
            a, b = (ix.lookup(key, ("id", "score")) for ix in (lazy, eager))
            assert (a.found, a.from_cache, a.values) == (b.found, b.from_cache, b.values)
        elif draw < 0.92:
            keys = [key] + [script.randrange(230) for _ in range(4)]
            for k in keys:
                eager_validate(eager, k, batched=True)
            a, b = (ix.lookup_many(keys, ("level",)) for ix in (lazy, eager))
            assert [r.values for r in a] == [r.values for r in b]
            assert [r.from_cache for r in a] == [r.from_cache for r in b]
        else:
            for table in tables:
                table.update("pk", key, {"score": step})
    assert leaf_bytes(lazy) == leaf_bytes(eager)
    for name in ("pages_zeroed", "full_invalidations", "predicates_logged"):
        assert getattr(lazy.invalidation, name) == getattr(eager.invalidation, name) > 0
    assert lazy.stats == eager.stats and lazy.cache.stats == eager.cache.stats
    assert lazy.stats.answered_from_cache > 100


def test_predicate_inside_the_leaf_range_zeroes_outside_keeps():
    table = build_table(CacheInvalidation(), rows=200)
    index = table.index("pk")
    low_leaf_key, other_low_key, high_leaf_key = 3, 5, 190
    assert index.tree.find_leaf(index.encode_key(low_leaf_key)) == \
        index.tree.find_leaf(index.encode_key(other_low_key))
    assert index.tree.find_leaf(index.encode_key(low_leaf_key)) != \
        index.tree.find_leaf(index.encode_key(high_leaf_key))
    for key in (low_leaf_key, high_leaf_key):
        index.lookup(key, ("score",))
        assert index.lookup(key, ("score",)).from_cache
    zeroed = index.invalidation.pages_zeroed
    table.update("pk", other_low_key, {"score": 1})  # logs a predicate
    assert index.lookup(high_leaf_key, ("score",)).from_cache  # outside: kept
    assert index.invalidation.pages_zeroed == zeroed
    assert not index.lookup(low_leaf_key, ("score",)).from_cache  # inside: zeroed
    assert index.invalidation.pages_zeroed == zeroed + 1
    for key in (low_leaf_key, high_leaf_key):  # both leaves are current again
        with index.tree.pool.page(index.tree.find_leaf(index.encode_key(key))) as page:
            assert page.cache_csn == index.invalidation.current_stamp


def test_epoch_bump_zeroes_on_next_read():
    index = build(CacheInvalidation(), rows=10)
    index.lookup(4, ("score",))
    assert index.lookup(4, ("score",)).from_cache
    index.invalidation.invalidate_all()
    zeroed = index.invalidation.pages_zeroed
    assert not index.lookup(4, ("score",)).from_cache
    assert index.invalidation.pages_zeroed == zeroed + 1
    assert index.lookup(4, ("score",)).from_cache


# -- projection and assembly -------------------------------------------------------


def test_unknown_projection_names_the_first_offender():
    index = build(None, rows=3)
    for call in (lambda p: index.lookup(1, p), lambda p: index.lookup_many([1], p)):
        with pytest.raises(QueryError, match="unknown projected column 'nope'$"):
            call(("id", "nope", "score", "zzz"))


def both_kinds_table():
    """A plain and a cached index over the same key column."""
    db = Database(page_size=1024)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "plain", ("id",))
    db.create_cached_index("t", "cached", ("id",), ("score", "level"))
    for i in range(5):
        table.insert({"id": i, "name": f"n{i}", "score": i * 2, "level": i % 7})
    return table


@pytest.mark.parametrize("call", ("lookup", "lookup_many"))
@pytest.mark.parametrize("key", (1, 99), ids=("present-key", "missing-key"))
@pytest.mark.parametrize("kind", ("plain", "cached"))
def test_unknown_projected_column_is_refused_by_both_index_kinds(kind, key, call):
    """A plain index used to raise ``SchemaError`` for a present key and
    answer ``found=False`` for a missing one."""
    table = both_kinds_table()
    lookup = getattr(table, call)
    with pytest.raises(QueryError, match="unknown projected column 'nope'$"):
        lookup(kind, key if call == "lookup" else [key], ("id", "nope"))
    assert table.index("plain").lookups == 0 and table.index("cached").stats.lookups == 0


@pytest.mark.parametrize("kind", ("plain", "cached"))
def test_list_projections_answer_like_tuples(kind):
    table = both_kinds_table()
    for project in (["level", "score"], ["name", "id"], ["score", "id"]):
        for _ in range(2):  # the cached index: a fill, then a hit
            got = table.lookup(kind, 3, project)
            assert got.values == table.lookup(kind, 3, tuple(project)).values
            assert list(got.values) == project
            many = table.lookup_many(kind, [3, 99, 3], project)
            assert [r.values for r in many] == [got.values, None, got.values]
    if kind == "cached":
        assert table.index(kind).stats.answered_from_cache > 0


def test_key_is_decoded_only_when_a_key_column_is_projected(monkeypatch):
    index = build(None, rows=3)
    index.lookup(2, ("score",))
    decodes = []
    real_decode = index.key_codec.decode
    monkeypatch.setattr(
        index.key_codec, "decode", lambda key: decodes.append(key) or real_decode(key)
    )
    hit = index.lookup(2, ("level", "score"))
    assert hit.from_cache and hit.values == {"level": 2, "score": 4}
    assert list(hit.values) == ["level", "score"] and decodes == []
    hit = index.lookup(2, ("score", "id"))
    assert hit.from_cache and hit.values == {"score": 4, "id": 2}
    assert len(decodes) == 1
