"""B+Tree over the buffer pool.

Design notes relevant to the paper:

* Nodes are slotted pages; the leaf free window between the directory and
  the key region is exactly the space the index cache (§2.1) recycles.
* Leaf splits move the upper ``1 - split_fraction`` of entries to a new
  right sibling.  Under random inserts a 0.5 split converges to the ~68%
  average fill factor the paper quotes from Yao [10]; under churn
  (insert/delete mixes) fill decays further — the CarTel 45% phenomenon.
* Deletes do **not** merge or rebalance nodes.  This matches the behaviour
  of deployed systems (and Johnson & Shasha's analysis the paper cites):
  space freed by deletes lingers as low fill factor, i.e. as reusable cache
  room.
* Keys and values are fixed-width byte strings (see ``keycodec``); the tree
  itself never interprets them beyond lexicographic comparison.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import (
    DuplicateKeyError,
    IndexError_,
    KeyNotFoundError,
    PageFullError,
)
from repro.btree.node import CHILD_PTR_SIZE, InternalNode, LeafNode
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage


#: Leaf-chain continuations a batched probe tries before re-descending.
#: A hop costs one page access; a descent costs ``height`` of them, so a
#: short bounded lookahead is never worse than eagerly re-descending.
MAX_CHAIN_HOPS = 2
#: Share of a splitting leaf's entries that stay put unless told otherwise
#: (the even split behind the paper's ~68 % fill; see above).
SPLIT_FRACTION = 0.5


class BPlusTree:
    """A unique-key B+Tree mapping fixed-width keys to fixed-width values."""

    def __init__(
        self,
        pool: BufferPool,
        key_size: int,
        value_size: int,
        name: str = "index",
        split_fraction: float = SPLIT_FRACTION,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if key_size <= 0 or value_size <= 0:
            raise IndexError_("key and value sizes must be positive")
        if not 0.1 <= split_fraction <= 0.9:
            raise IndexError_("split_fraction must be in [0.1, 0.9]")
        reg = resolve_registry(registry)
        #: The metrics registry this tree emits into (resolved, never None).
        self.registry = reg
        self._m_search = reg.counter("btree.search")
        self._m_descent = reg.counter("btree.descent")
        self._m_batch_keys = reg.counter("btree.batch.keys")
        self._m_batch_probes = reg.counter("btree.batch.probes")
        self._m_batch_chain_hops = reg.counter("btree.batch.chain_hops")
        self._m_insert = reg.counter("btree.insert")
        self._m_delete = reg.counter("btree.delete")
        self._m_split_leaf = reg.counter("btree.split.leaf")
        self._m_split_internal = reg.counter("btree.split.internal")
        self.pool = pool
        self.key_size = key_size
        self.value_size = value_size
        self.name = name
        self.split_fraction = split_fraction
        self.num_entries = 0
        self._leaf_ids: list[int] = []
        self._internal_ids: list[int] = []
        root = pool.new_page(PageType.BTREE_LEAF)
        self._root_id = root.page_id
        #: Number of levels, 1 for a single-leaf tree.
        self.height = 1
        self._leaf_ids.append(root.page_id)
        pool.unpin(root.page_id, dirty=True)

    # -- properties ----------------------------------------------------------

    @property
    def leaf_page_ids(self) -> list[int]:
        return list(self._leaf_ids)

    @property
    def internal_page_ids(self) -> list[int]:
        return list(self._internal_ids)

    @property
    def num_pages(self) -> int:
        return len(self._leaf_ids) + len(self._internal_ids)

    @property
    def size_bytes(self) -> int:
        """Total index size: node pages × page size."""
        return self.num_pages * self.pool.disk.page_size

    # -- lookups -------------------------------------------------------------

    def search(self, key: bytes) -> bytes | None:
        """Exact lookup; returns the value bytes or ``None``."""
        self._check_key(key)
        self._m_search.inc()
        leaf_id = self.find_leaf(key)
        with self.pool.page(leaf_id) as page:
            leaf = self._leaf(page)
            pos, found = leaf.find(key)
            return leaf.value_at(pos) if found else None

    def find_leaf(self, key: bytes) -> int:
        """Descend to the leaf page that owns ``key`` and return its id.

        The descent itself charges buffer-pool costs for the internal
        pages; the caller pins the leaf (this is the hook the cached index
        uses so it can probe the leaf's cache window while it holds it).
        """
        self._check_key(key)
        self._m_descent.inc()
        page_id = self._root_id
        while True:
            with self.pool.page(page_id) as page:
                if page.type_code == PageType.BTREE_LEAF:
                    return page_id
                node = InternalNode(page, self.key_size)
                _, page_id = node.find_child(key)

    def lookup_many(self, keys: "Iterable[bytes]") -> dict[bytes, bytes | None]:
        """Batched exact lookups: sorted probes share descents and leaves.

        Keys are deduped and probed in ascending order, so a run of keys
        that lands on one leaf costs a single inner-node descent plus a
        single leaf pin, and a probe whose key lives on an adjacent leaf
        follows the leaf sibling chain (one page access) instead of
        re-descending from the root (``height`` page accesses).  Returns
        ``key -> value-or-None`` for every requested key; results are
        identical to calling :meth:`search` once per key.
        """
        key_list = list(keys)
        for key in key_list:
            self._check_key(key)
        out: dict[bytes, bytes | None] = {}
        probes = sorted(set(key_list))
        if not probes:
            return out
        self._m_batch_keys.inc(len(key_list))
        self._m_batch_probes.inc(len(probes))
        self._m_search.inc(len(probes))
        for _, page, run in self.leaf_runs(probes):
            leaf = self._leaf(page)
            for key in run:
                pos, found = leaf.find(key)
                out[key] = leaf.value_at(pos) if found else None
        return out

    def range_batch(
        self, ranges: "list[tuple[bytes | None, bytes | None]]"
    ) -> list[list[tuple[bytes, bytes]]]:
        """Batched range scans sharing descents across sorted ``lo`` bounds.

        Each ``(lo, hi)`` behaves like ``list(range_scan(lo, hi))``;
        results are returned aligned with the *input* order.  Ranges are
        processed in ascending ``lo`` order so a range starting in or
        just after the previous range's last leaf continues along the
        leaf chain instead of re-descending.
        """
        for lo, hi in ranges:
            if lo is not None:
                self._check_key(lo)
            if hi is not None:
                self._check_key(hi)
        results: list[list[tuple[bytes, bytes]]] = [[] for _ in ranges]
        order = sorted(
            range(len(ranges)),
            key=lambda i: (ranges[i][0] is not None, ranges[i][0] or b""),
        )
        cursor: tuple[int, SlottedPage] | None = None
        try:
            for i in order:
                lo, hi = ranges[i]
                collected = results[i]
                # Position on the leaf owning ``lo`` (or the leftmost).
                held, cursor = cursor, None
                if lo is None:
                    if held is not None:
                        self.pool.unpin(held[0])
                    first = self._leftmost_leaf()
                    cursor = (first, self.pool.fetch(first))
                else:
                    cursor = self._seek_leaf_forward(held, lo, for_scan=True)
                # Walk the chain collecting entries in [lo, hi).
                bound = lo
                while True:
                    page_id, page = cursor
                    leaf = self._leaf(page)
                    start = 0
                    if bound is not None:
                        start, _ = leaf.find(bound)
                        bound = None
                    done = False
                    for pos in range(start, leaf.count):
                        key, value = leaf.entry_at(pos)
                        if hi is not None and key >= hi:
                            done = True
                            break
                        collected.append((key, value))
                    next_id = page.next_page
                    if done or next_id is None:
                        break
                    cursor = None
                    self.pool.unpin(page_id)
                    cursor = (next_id, self.pool.fetch(next_id))
        finally:
            if cursor is not None:
                self.pool.unpin(cursor[0])
        return results

    def leaf_runs(
        self, keys: Iterable[bytes]
    ) -> Iterator[tuple[int, SlottedPage, list[bytes]]]:
        """Group probe keys into per-leaf runs, sharing descents and pins.

        Dedupes and sorts the keys, then yields ``(leaf_id, page, run)``
        where ``page`` is the pinned leaf that decides every key in
        ``run`` (consecutive sorted keys landing on one leaf).  The pin
        is held only while the consumer is inside the ``yield`` — this is
        the hook the cached index uses to probe a leaf's cache window
        once per run instead of once per key.  Pages must not be dirtied
        by consumers (batched reads are a read-only path).
        """
        probes = sorted(set(keys))
        cursor: tuple[int, SlottedPage] | None = None
        try:
            i = 0
            while i < len(probes):
                held, cursor = cursor, None
                cursor = self._seek_leaf_forward(held, probes[i])
                page_id, page = cursor
                leaf = self._leaf(page)
                count = leaf.count
                last = leaf.key_at(count - 1) if count else None
                rightmost = page.next_page is None
                run = [probes[i]]
                i += 1
                while i < len(probes) and (
                    rightmost or (last is not None and probes[i] <= last)
                ):
                    run.append(probes[i])
                    i += 1
                yield page_id, page, run
        finally:
            if cursor is not None:
                self.pool.unpin(cursor[0])

    def _seek_leaf_forward(
        self,
        cursor: tuple[int, SlottedPage] | None,
        key: bytes,
        for_scan: bool = False,
    ) -> tuple[int, SlottedPage]:
        """Advance a pinned leaf cursor to a leaf that decides ``key``.

        Probes must arrive in ascending key order.  Tries up to
        ``MAX_CHAIN_HOPS`` sibling hops before falling back to a full
        descent.  For point probes a leaf "decides" the key when the key
        is <= its last key (a miss there is a miss in the tree, because
        sibling ranges are contiguous); for scans (``for_scan=True``) the
        cursor must land on the true owner leaf, so a cursor whose first
        key is past ``key`` re-descends instead of under-reporting.
        Always returns a pinned ``(page_id, page)``; on error no pin is
        leaked (the incoming pin is released before any fallible step).
        """
        if cursor is not None:
            page_id, page = cursor
            hops = 0
            while True:
                leaf = self._leaf(page)
                count = leaf.count
                if for_scan and (count == 0 or key < leaf.key_at(0)):
                    # Scans need the owner leaf: entries >= key may live
                    # on an earlier leaf than this cursor.
                    self.pool.unpin(page_id)
                    break
                if count and key <= leaf.key_at(count - 1):
                    return page_id, page
                next_id = page.next_page
                if next_id is None:
                    return page_id, page  # rightmost leaf decides
                self.pool.unpin(page_id)
                if hops >= MAX_CHAIN_HOPS:
                    break  # too far ahead: re-descend
                self._m_batch_chain_hops.inc()
                hops += 1
                page = self.pool.fetch(next_id)
                page_id = next_id
        leaf_id = self.find_leaf(key)
        return leaf_id, self.pool.fetch(leaf_id)

    def range_scan(
        self, lo: bytes | None = None, hi: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` with ``lo <= key < hi`` in key order."""
        if lo is not None:
            self._check_key(lo)
        if hi is not None:
            self._check_key(hi)
        page_id: int | None
        if lo is None:
            page_id = self._leftmost_leaf()
        else:
            page_id = self.find_leaf(lo)
        while page_id is not None:
            with self.pool.page(page_id) as page:
                leaf = self._leaf(page)
                if lo is None:
                    start = 0
                else:
                    start, _ = leaf.find(lo)
                batch = []
                for pos in range(start, leaf.count):
                    key, value = leaf.entry_at(pos)
                    if hi is not None and key >= hi:
                        page_id = None
                        break
                    batch.append((key, value))
                else:
                    page_id = page.next_page
            yield from batch
            lo = None  # only constrain the first leaf

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Full in-order scan."""
        return self.range_scan()

    # -- mutation ------------------------------------------------------------

    def insert(self, key: bytes, value: bytes, upsert: bool = False) -> None:
        """Insert ``key -> value``; raises on duplicates unless ``upsert``."""
        self._check_key(key)
        self._check_value(value)
        self._m_insert.inc()
        path = self._descend(key)
        leaf_id = path[-1][0]
        with self.pool.page(leaf_id, dirty=True) as page:
            leaf = self._leaf(page)
            pos, found = leaf.find(key)
            if found:
                if not upsert:
                    raise DuplicateKeyError(
                        f"{self.name}: duplicate key {key.hex()}"
                    )
                leaf.set_value(pos, value)
                return
            if self._try_insert_leaf(leaf, pos, key, value):
                self.num_entries += 1
                return
        # The leaf is genuinely full: split, then insert into the proper half.
        separator, new_leaf_id = self._split_leaf(leaf_id)
        self._insert_into_parent(path[:-1], leaf_id, separator, new_leaf_id)
        target = new_leaf_id if key >= separator else leaf_id
        with self.pool.page(target, dirty=True) as page:
            leaf = self._leaf(page)
            pos, found = leaf.find(key)
            if found:  # pragma: no cover - guarded above
                raise DuplicateKeyError(f"{self.name}: duplicate key")
            leaf.insert(pos, key, value)
        self.num_entries += 1

    def update_value(self, key: bytes, value: bytes) -> None:
        """Overwrite the value of an existing key."""
        self._check_key(key)
        self._check_value(value)
        leaf_id = self.find_leaf(key)
        with self.pool.page(leaf_id, dirty=True) as page:
            leaf = self._leaf(page)
            pos, found = leaf.find(key)
            if not found:
                raise KeyNotFoundError(f"{self.name}: key {key.hex()} not found")
            leaf.set_value(pos, value)

    def delete(self, key: bytes) -> None:
        """Remove ``key``; no node merging (fill factor decays, see module
        docstring).  Raises :class:`KeyNotFoundError` if absent."""
        self._check_key(key)
        self._m_delete.inc()
        leaf_id = self.find_leaf(key)
        with self.pool.page(leaf_id, dirty=True) as page:
            leaf = self._leaf(page)
            pos, found = leaf.find(key)
            if not found:
                raise KeyNotFoundError(f"{self.name}: key {key.hex()} not found")
            leaf.remove(pos)
        self.num_entries -= 1

    # -- bulk loading ----------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        pool: BufferPool,
        entries: list[tuple[bytes, bytes]],
        key_size: int,
        value_size: int,
        name: str = "index",
        leaf_fill: float = 0.68,
        split_fraction: float = SPLIT_FRACTION,
        registry: MetricsRegistry | None = None,
    ) -> "BPlusTree":
        """Build a tree from sorted unique entries at a target leaf fill.

        The default 0.68 fill reproduces the steady-state occupancy the
        paper quotes; experiments that want denser or sparser indexes pass
        a different ``leaf_fill``.
        """
        if not 0.05 < leaf_fill <= 1.0:
            raise IndexError_("leaf_fill must be in (0.05, 1.0]")
        tree = cls(pool, key_size, value_size, name=name,
                   split_fraction=split_fraction, registry=registry)
        if not entries:
            return tree
        for i in range(1, len(entries)):
            if entries[i - 1][0] >= entries[i][0]:
                raise IndexError_("bulk_load requires sorted unique keys")

        # Fill leaves left to right up to the fill target.
        first_leaf = tree._root_id
        leaf_entry = key_size + value_size + 4  # + directory entry
        with pool.page(first_leaf) as page:
            usable = page.usable_bytes
        per_leaf = max(1, int(usable * leaf_fill) // leaf_entry)

        leaves: list[tuple[bytes, int]] = []  # (first key, page id)
        idx = 0
        current_id = first_leaf
        while idx < len(entries):
            chunk = entries[idx : idx + per_leaf]
            with pool.page(current_id, dirty=True) as page:
                leaf = tree._leaf(page)
                for j, (key, value) in enumerate(chunk):
                    leaf.insert(j, key, value)
            leaves.append((chunk[0][0], current_id))
            idx += per_leaf
            if idx < len(entries):
                new_page = pool.new_page(PageType.BTREE_LEAF)
                new_id = new_page.page_id
                pool.unpin(new_id, dirty=True)
                tree._leaf_ids.append(new_id)
                with pool.page(current_id, dirty=True) as page:
                    page.next_page = new_id
                current_id = new_id
        tree.num_entries = len(entries)

        # Build internal levels bottom-up until one node remains.
        level = 1
        children = leaves
        internal_entry = key_size + CHILD_PTR_SIZE + 4
        per_internal = max(2, int(usable * leaf_fill) // internal_entry)
        while len(children) > 1:
            parents: list[tuple[bytes, int]] = []
            for start in range(0, len(children), per_internal):
                group = children[start : start + per_internal]
                page = pool.new_page(PageType.BTREE_INTERNAL)
                page.level = level
                node = InternalNode(page, key_size)
                for j, (first_key, child_id) in enumerate(group):
                    node.insert(j, first_key, child_id)
                parents.append((group[0][0], page.page_id))
                tree._internal_ids.append(page.page_id)
                pool.unpin(page.page_id, dirty=True)
            children = parents
            level += 1
        tree._root_id = children[0][1]
        tree.height = level
        return tree

    # -- maintenance / stats ----------------------------------------------------

    def leaf_fill_factor(self) -> float:
        """Mean fill factor across leaf pages."""
        if not self._leaf_ids:
            return 0.0
        total = 0.0
        for page_id in self._leaf_ids:
            with self.pool.page(page_id) as page:
                total += page.fill_factor
        return total / len(self._leaf_ids)

    def verify_order(self) -> None:
        """Walk every leaf and assert keys are globally sorted (tests)."""
        previous: bytes | None = None
        for key, _ in self.items():
            if previous is not None and key <= previous:
                raise IndexError_(
                    f"{self.name}: order violation at {key.hex()}"
                )
            previous = key

    # -- internals ---------------------------------------------------------------

    def _leaf(self, page: SlottedPage) -> LeafNode:
        return LeafNode(page, self.key_size, self.value_size)

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise IndexError_(
                f"{self.name}: key must be {self.key_size} bytes, "
                f"got {len(key)}"
            )

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.value_size:
            raise IndexError_(
                f"{self.name}: value must be {self.value_size} bytes, "
                f"got {len(value)}"
            )

    def _descend(self, key: bytes) -> list[tuple[int, int]]:
        """Root-to-leaf path as ``(page_id, position_in_parent)`` pairs.

        The position recorded for each page is its entry position within
        its *parent* (0 for the root).
        """
        path = [(self._root_id, 0)]
        page_id = self._root_id
        while True:
            with self.pool.page(page_id) as page:
                if page.type_code == PageType.BTREE_LEAF:
                    return path
                node = InternalNode(page, self.key_size)
                pos, child = node.find_child(key)
            path.append((child, pos))
            page_id = child

    def _try_insert_leaf(
        self, leaf: LeafNode, pos: int, key: bytes, value: bytes
    ) -> bool:
        """Insert, compacting orphaned record bytes once before giving up."""
        try:
            leaf.insert(pos, key, value)
            return True
        except PageFullError:
            pass
        if leaf.page.live_record_bytes + leaf.entry_size + 4 \
                > leaf.page.usable_bytes - leaf.count * 4:
            return False
        leaf.page.compact()
        try:
            leaf.insert(pos, key, value)
            return True
        except PageFullError:
            return False

    def _split_leaf(self, leaf_id: int) -> tuple[bytes, int]:
        """Split ``leaf_id``; returns ``(separator_key, new_leaf_id)``."""
        new_page = self.pool.new_page(PageType.BTREE_LEAF)
        new_id = new_page.page_id
        try:
            with self.pool.page(leaf_id, dirty=True) as page:
                leaf = self._leaf(page)
                count = leaf.count
                split_at = min(max(1, int(count * self.split_fraction)),
                               count - 1)
                moved = [leaf.entry_at(i) for i in range(split_at, count)]
                new_leaf = LeafNode(new_page, self.key_size, self.value_size)
                for j, (key, value) in enumerate(moved):
                    new_leaf.insert(j, key, value)
                page_next = page.next_page
                new_page.next_page = page_next
                page.truncate(split_at)
                page.compact()
                page.next_page = new_id
                separator = moved[0][0]
        finally:
            self.pool.unpin(new_id, dirty=True)
        self._leaf_ids.append(new_id)
        self._m_split_leaf.inc()
        return separator, new_id

    def _split_internal(self, node_id: int) -> tuple[bytes, int]:
        """Split an internal node; returns ``(separator_key, new_node_id)``."""
        new_page = self.pool.new_page(PageType.BTREE_INTERNAL)
        new_id = new_page.page_id
        try:
            with self.pool.page(node_id, dirty=True) as page:
                node = InternalNode(page, self.key_size)
                count = node.count
                split_at = max(1, count // 2)
                moved = [node.entry_at(i) for i in range(split_at, count)]
                new_page.level = page.level
                new_node = InternalNode(new_page, self.key_size)
                for j, (key, child) in enumerate(moved):
                    new_node.insert(j, key, child)
                page.truncate(split_at)
                page.compact()
                # The separator promoted to the parent is the first moved
                # key; within the new node that entry's key acts as -inf.
                separator = moved[0][0]
        finally:
            self.pool.unpin(new_id, dirty=True)
        self._internal_ids.append(new_id)
        self._m_split_internal.inc()
        return separator, new_id

    def _insert_into_parent(
        self,
        path: list[tuple[int, int]],
        left_id: int,
        separator: bytes,
        right_id: int,
    ) -> None:
        """Insert ``(separator, right_id)`` next to ``left_id`` in its parent.

        ``path`` is the remaining root-ward path; empty means ``left_id``
        was the root and we grow a new root.
        """
        if not path:
            self._grow_root(left_id, separator, right_id)
            return
        parent_id, _ = path[-1]
        with self.pool.page(parent_id, dirty=True) as page:
            node = InternalNode(page, self.key_size)
            pos, child = node.find_child(separator)
            if child != left_id:
                # The separator routes to the left sibling by construction;
                # anything else means the path raced with another split.
                raise IndexError_(
                    f"{self.name}: parent routing mismatch during split"
                )
            try:
                node.insert(pos + 1, separator, right_id)
                return
            except PageFullError:
                page.compact()
                try:
                    node.insert(pos + 1, separator, right_id)
                    return
                except PageFullError:
                    pass
        parent_sep, new_parent_id = self._split_internal(parent_id)
        self._insert_into_parent(path[:-1], parent_id, parent_sep, new_parent_id)
        target = new_parent_id if separator >= parent_sep else parent_id
        with self.pool.page(target, dirty=True) as page:
            node = InternalNode(page, self.key_size)
            pos, child = node.find_child(separator)
            if child != left_id:
                raise IndexError_(
                    f"{self.name}: parent routing mismatch after split"
                )
            node.insert(pos + 1, separator, right_id)

    def _grow_root(self, left_id: int, separator: bytes, right_id: int) -> None:
        page = self.pool.new_page(PageType.BTREE_INTERNAL)
        try:
            page.level = self.height
            node = InternalNode(page, self.key_size)
            # Entry 0's key is the -inf sentinel; zeros keep it inert.
            node.insert(0, bytes(self.key_size), left_id)
            node.insert(1, separator, right_id)
            self._root_id = page.page_id
            self._internal_ids.append(page.page_id)
            self.height += 1
        finally:
            self.pool.unpin(page.page_id, dirty=True)

    def _leftmost_leaf(self) -> int:
        page_id = self._root_id
        while True:
            with self.pool.page(page_id) as page:
                if page.type_code == PageType.BTREE_LEAF:
                    return page_id
                node = InternalNode(page, self.key_size)
                page_id = node.child_at(0)
