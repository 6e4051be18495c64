"""CachedBTree: a B+Tree whose leaf free space caches hot tuple fields.

This is the end-to-end assembly of §2.1: lookups descend the tree, probe
the leaf's cache window for the tuple id, and — when the query's projection
is covered by ``index key ∪ cached fields`` — return without ever touching
the heap (no buffer-pool access, no disk).  Misses fetch the heap tuple
through the buffer pool and then piggy-back a cache fill, exactly the
"piggy-back off normal query processing" maintenance the paper prescribes.

Cost accounting contract (how the experiments recreate the paper's setup):

* Pass a :class:`~repro.sim.cost_model.CostModel` here to charge the
  in-memory index path: one ``index_descent`` per lookup plus one
  ``cache_probe`` per cache scan.
* Hook the *heap's* buffer pool with the same model so heap fetches charge
  a buffer-pool access and, on pool misses, a disk read.
* Leave the *index* pool unhooked to model the paper's "index is fully in
  memory" assumption (Fig. 2b/2c); hook it too for the all-costs-real
  configuration (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.btree.keycodec import codec_for_columns
from repro.btree.rebuild import rebuild_tree_from_heap
from repro.btree.tree import BPlusTree
from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.core.index_cache.latching import LatchSimulator
from repro.core.index_cache.policy import CachePolicy
from repro.errors import PageFormatError, QueryError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.schema.record import pack_record_map, unpack_fields
from repro.schema.schema import Schema
from repro.sim.cost_model import CostModel
from repro.storage.constants import PageType
from repro.storage.heap import HeapFile, Rid, RID_SIZE
from repro.util.rng import DeterministicRng

#: Projections one index keeps a resolved plan for, oldest dropped first.
PLAN_CAP = 32

#: ``CachedIndexStats`` fields the registry reads (``MetricsRegistry.adopt``).
_ADOPTED = {
    "lookups": "index_cache.lookup",
    "answered_from_cache": "index_cache.hit",
    "heap_fetches": "index_cache.heap_fetch",
    "not_answerable": "index_cache.not_answerable",
    "cache_fills": "index_cache.fill",
    "fills_skipped_latch": "index_cache.fill_skipped_latch",
    "fills_skipped_admission": "index_cache.fill_skipped_admission",
}


@dataclass
class CachedIndexStats:
    """Where lookups were answered from."""

    lookups: int = 0
    found: int = 0
    answered_from_cache: int = 0
    heap_fetches: int = 0
    not_answerable: int = 0
    cache_fills: int = 0
    fills_skipped_latch: int = 0
    fills_skipped_admission: int = 0

    @property
    def cache_answer_rate(self) -> float:
        return self.answered_from_cache / self.found if self.found else 0.0


@dataclass
class LookupResult:
    """Outcome of one point lookup."""

    values: dict[str, object] | None
    found: bool
    from_cache: bool


class ProjectionPlans(dict):
    """``project -> (names, picks, keyed)``, resolved on first use.

    ``names`` is the checked projection (every column for ``None``; an
    unknown one raises before any page is read).  ``picks`` places each
    value in a leaf answer — payload values, then key values — or is
    ``None`` when ``index key ∪ cached fields`` does not cover it; ``keyed``
    says the key must be decoded.  Read by subscript, so a known projection
    costs no call; a list, being unhashable, is looked up as its tuple.
    """

    def __init__(self, schema: Schema, payload: tuple, key: tuple) -> None:
        self._schema, self._leaf, self._width = schema, payload + key, len(payload)

    def __missing__(self, project):
        names = self._schema.names if project is None else tuple(project)
        for name in names:
            if not self._schema.has_column(name):
                raise QueryError(f"unknown projected column {name!r}")
        picks = keyed = None
        if self._leaf and set(self._leaf).issuperset(names):
            picks = tuple(map(self._leaf.index, names))
            keyed = any(pick >= self._width for pick in picks)
        if len(self) >= PLAN_CAP:
            del self[next(iter(self))]
        plan = self[project] = (names, picks, keyed)
        return plan


class CachedBTree:
    """Unique secondary index with the §2.1 in-leaf tuple cache."""

    def __init__(
        self,
        tree: BPlusTree,
        heap: HeapFile,
        schema: Schema,
        key_columns: tuple[str, ...],
        cached_fields: tuple[str, ...],
        policy: CachePolicy | None = None,
        rng: DeterministicRng | None = None,
        invalidation: CacheInvalidation | None = None,
        latch: LatchSimulator | None = None,
        cost_model: CostModel | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not key_columns:
            raise QueryError("index needs at least one key column")
        overlap = set(key_columns) & set(cached_fields)
        if overlap:
            raise QueryError(
                f"fields {sorted(overlap)} are index keys; caching them "
                "would duplicate bytes the leaf already stores"
            )
        self.tree = tree
        self.heap = heap
        self._schema = schema
        self.cached_fields = tuple(cached_fields)
        #: The key maker: key value or row -> ordered bytes, and back.
        self.key_codec = codec_for_columns(
            [schema.column(c) for c in key_columns]
        )
        self.encode_key = self.key_codec.encode_key
        if self.key_codec.size != tree.key_size:
            raise QueryError(
                f"tree key size {tree.key_size} != codec size {self.key_codec.size}"
            )
        if tree.value_size != RID_SIZE:
            raise QueryError("cached index requires RID-valued tree")
        self._payload_schema = schema.project(cached_fields)
        payload_size = self._payload_schema.record_size
        if payload_size <= 0:
            raise QueryError("cached_fields must have positive total width")
        payload_struct, _, self._payload_post = self._payload_schema.codec
        self._unpack_payload = payload_struct.unpack
        self._key_size = tree.key_size
        self.cache = IndexCache(
            payload_size,
            entry_size=tree.key_size + tree.value_size,
            policy=policy,
            rng=rng,
            registry=registry,
        )
        self.invalidation = invalidation
        self.latch = latch if latch is not None else LatchSimulator(0.0)
        self._cost = cost_model
        self._plans = ProjectionPlans(
            schema, self._payload_schema.names, self.key_codec.columns
        )
        self.stats = CachedIndexStats()
        #: Admission aggressiveness: the fraction of piggy-back fill
        #: opportunities actually written into leaf cache windows.  1.0
        #: (the default) admits everything — the paper's behaviour; the
        #: adaptive controller lowers it to shed fill work under churn.
        self.cache_admission = 1.0
        self._admission_credit = 0.0
        reg = resolve_registry(registry)
        self._m_admission_knob = reg.gauge("adaptive.knob.index_cache.admission")
        self._m_admission_knob.set(self.cache_admission)
        reg.adopt(self.stats, _ADOPTED)
        # a probe that finds nothing is a cache miss: the cache counts it
        reg.adopt(self.cache.stats, {"misses": "index_cache.miss"})

    def set_cache_admission(self, fraction: float) -> None:
        """Retune cache-fill admission (the adaptive knob).

        Deterministic credit accounting, not coin flips: each skipped
        opportunity accrues ``fraction`` of a fill credit and the next
        opportunity with a whole credit is admitted, so a long run of
        fills converges on exactly the requested admission rate.
        """
        if not 0.0 <= fraction <= 1.0:
            raise QueryError(
                f"cache admission must be within [0, 1], got {fraction}"
            )
        self.cache_admission = float(fraction)
        self._m_admission_knob.set(self.cache_admission)

    # -- index maintenance (the heap row is Table's) -------------------------

    def insert_key(self, row: dict[str, object], rid: Rid) -> None:
        """Index-maintenance-only insert: the heap row already exists.

        Used by :class:`repro.query.table.Table`, which owns the heap write
        and fans out to every index on the table.  The tree insert may
        consume leaf free space, silently clobbering peripheral cache
        slots — by design, no coordination needed.
        """
        self.tree.insert(self.key_codec.encode_row(row), rid.to_bytes())

    def delete_key(self, row: dict[str, object]) -> None:
        """Index-maintenance-only delete (heap row handled by the caller)."""
        key = self.key_codec.encode_row(row)
        self.tree.delete(key)
        if self.invalidation is not None:
            self.invalidation.note_update(key)

    def note_update(self, row: dict[str, object], changed: set[str]) -> None:
        """Invalidate this index's cached copy after a heap update."""
        if self.invalidation is not None and changed & set(self.cached_fields):
            self.invalidation.note_update(self.key_codec.encode_row(row))

    def find_rid(self, key_value: object) -> Rid | None:
        """Key value -> RID through the tree alone: no cache probe, no
        stats.  ``Table.update``/``delete`` find the heap tuple with it."""
        rid_bytes = self.tree.search(self.encode_key(key_value))
        return Rid.from_bytes(rid_bytes) if rid_bytes is not None else None

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> LookupResult:
        """Point lookup with projection (the paper's workhorse query)."""
        plan = self._plans[tuple(project) if type(project) is list else project]
        key = self.encode_key(key_value)
        self.stats.lookups += 1
        if self._cost is not None:
            self._cost.on_index_descent()
        leaf_id = self.tree.find_leaf(key)
        with self.tree.pool.page(leaf_id) as page:
            if page.type_code != PageType.BTREE_LEAF:
                raise PageFormatError(f"page {leaf_id} is not a leaf")
            pos, found = page.bisect(key)
            if not found:
                return LookupResult(None, found=False, from_cache=False)
            self.stats.found += 1
            tid = page.read(pos)[self._key_size :]
            invalidation = self.invalidation
            if invalidation is not None and \
                    page.cache_csn != invalidation.current_stamp:
                self._validate(page)
            if plan[1] is not None:
                if self._cost is not None:
                    self._cost.on_cache_probe()
                payload = self.cache.probe(page, tid)
                if payload is not None:
                    self.stats.answered_from_cache += 1
                    values = self._assemble(plan, key, payload)
                    return LookupResult(values, found=True, from_cache=True)
            else:
                self.stats.not_answerable += 1
            # Cache miss (or unanswerable projection): go to the heap.
            rid = Rid.from_bytes(tid)
            record = self.heap.fetch(rid)
            self.stats.heap_fetches += 1
            values = unpack_fields(self._schema, record, plan[0])
            self._fill_cache(page, tid, record)
            return LookupResult(values, found=True, from_cache=False)

    def lookup_many(
        self,
        key_values: list[object],
        project: tuple[str, ...] | None = None,
    ) -> list["LookupResult"]:
        """Batched point lookups: one descent and one cache probe per leaf
        *run* instead of per key, heap misses fetched page-ordered.

        Results are positionally aligned with ``key_values`` and identical
        to calling :meth:`lookup` per key.  The batch is probed in three
        phases: (1) walk the sorted keys through
        :meth:`BPlusTree.leaf_runs`, validating each leaf's CSN once and
        probing its cache window for every key in the run; (2) fetch all
        cache misses from the heap through the page-ordered
        :meth:`HeapFile.fetch_many` (each heap page pinned once); (3)
        piggy-back cache fills grouped by leaf.  Duplicate keys are
        probed once.  Cost accounting: one ``index_descent`` per leaf run
        (the descent really is shared) and one ``cache_probe`` per unique
        answerable key.
        """
        plan = self._plans[tuple(project) if type(project) is list else project]
        encoded = [self.encode_key(kv) for kv in key_values]
        by_key: dict[bytes, LookupResult] = {}
        if not encoded:
            return []
        #: cache misses to resolve from the heap: encoded key -> (rid, leaf)
        misses: list[tuple[bytes, Rid, int]] = []
        invalidation = self.invalidation
        for leaf_id, page, run in self.tree.leaf_runs(encoded):
            if self._cost is not None:
                self._cost.on_index_descent()
            if invalidation is not None and \
                    page.cache_csn != invalidation.current_stamp:
                self._validate(page)
            for key in run:
                self.stats.lookups += 1
                pos, found = page.bisect(key)
                if not found:
                    by_key[key] = LookupResult(None, found=False, from_cache=False)
                    continue
                self.stats.found += 1
                tid = page.read(pos)[self._key_size :]
                if plan[1] is not None:
                    if self._cost is not None:
                        self._cost.on_cache_probe()
                    payload = self.cache.probe(page, tid)
                    if payload is not None:
                        self.stats.answered_from_cache += 1
                        by_key[key] = LookupResult(
                            self._assemble(plan, key, payload),
                            found=True,
                            from_cache=True,
                        )
                        continue
                else:
                    self.stats.not_answerable += 1
                misses.append((key, Rid.from_bytes(tid), leaf_id))
        if misses:
            records = self.heap.fetch_many([rid for _, rid, _ in misses])
            fills_by_leaf: dict[int, list[tuple[bytes, bytes]]] = {}
            for key, rid, leaf_id in misses:
                record = records[rid]
                self.stats.heap_fetches += 1
                by_key[key] = LookupResult(
                    unpack_fields(self._schema, record, plan[0]),
                    found=True,
                    from_cache=False,
                )
                fills_by_leaf.setdefault(leaf_id, []).append(
                    (rid.to_bytes(), record)
                )
            pool = self.tree.pool
            for leaf_id, fills in fills_by_leaf.items():
                with pool.page(leaf_id) as page:
                    for tid, record in fills:
                        self._fill_cache(page, tid, record)
        return [by_key[key] for key in encoded]

    # -- recovery ----------------------------------------------------------------

    def drop_cache(self) -> None:
        """Drop every cached tuple copy wholesale (recovery path).

        Cached copies are pure derived state, so the cheapest correct
        response to *any* doubt about them is to throw them all away: one
        O(1) epoch bump when CSN invalidation is wired, else an explicit
        zeroing sweep over the leaf windows.
        """
        if self.invalidation is not None:
            self.invalidation.invalidate_all()
            return
        pool = self.tree.pool
        for page_id in self.tree.leaf_page_ids:
            with pool.page(page_id, dirty=True) as page:
                self.cache.zero_window(page)

    def rebuild_from_heap(self) -> BPlusTree:
        """Reconstruct the index from the heap (corruption recovery).

        The replacement tree starts with empty cache windows, and
        :meth:`drop_cache` bumps the invalidation epoch so no stale cached
        copy — in memory or already written back — can ever be served.
        Subsequent lookups refill the cache by the usual piggy-back path.
        """
        self.tree = rebuild_tree_from_heap(
            self.tree, self.heap, self._schema, self.key_codec
        )
        self.drop_cache()
        return self.tree

    # -- introspection -----------------------------------------------------------

    def cache_capacity_total(self) -> int:
        """Sum of current cache slots across every leaf."""
        total = 0
        pool = self.tree.pool
        for page_id in self.tree.leaf_page_ids:
            with pool.page(page_id) as page:
                total += self.cache.capacity(page)
        return total

    def cached_item_count(self) -> int:
        """Number of valid cache items across every leaf."""
        total = 0
        pool = self.tree.pool
        for page_id in self.tree.leaf_page_ids:
            with pool.page(page_id) as page:
                total += len(self.cache.entries(page))
        return total

    # -- internals ---------------------------------------------------------------

    def _validate(self, page) -> None:
        """Enforce the CSN invariants on a leaf (§2.1.2).  Callers skip it
        when the page's stamp is current: nothing would be zeroed, and the
        re-stamp would write the same 8 bytes."""
        count = page.slot_count
        first = last = None
        if count:
            first = page.read(0)[: self._key_size]
            last = page.read(count - 1)[: self._key_size]
        self.invalidation.validate_page(page, self.cache, first, last)

    def _assemble(self, plan, key: bytes, payload: bytes) -> dict[str, object]:
        """A leaf answer: the projected values straight off the payload
        ``Struct`` (a packed record over the cached fields), in ``plan``'s
        order; the key is decoded only when a key column is projected."""
        names, picks, keyed = plan
        values = self._unpack_payload(payload)
        if self._payload_post:
            values = list(values)
            for i, step in self._payload_post:
                values[i] = step(values[i])
        if keyed:
            values = (*values, *self.key_codec.decode_columns(key).values())
        return dict(zip(names, map(values.__getitem__, picks)))

    def _fill_cache(self, page, tid: bytes, record: bytes) -> None:
        if self.cache_admission < 1.0:
            self._admission_credit += self.cache_admission
            if self._admission_credit < 1.0:
                self.stats.fills_skipped_admission += 1
                return
            self._admission_credit -= 1.0
        if not self.latch.try_acquire():
            self.stats.fills_skipped_latch += 1
            return
        fields = unpack_fields(self._schema, record, self._payload_schema.names)
        payload = pack_record_map(self._payload_schema, fields)
        if self.cache.insert(page, tid, payload):
            self.stats.cache_fills += 1
