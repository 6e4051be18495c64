"""The index cache proper: byte-level slot I/O plus policy orchestration.

One :class:`IndexCache` instance serves a whole index; it is stateless with
respect to individual pages (all cache state lives in the page bytes), so
it can be pointed at any leaf page the B+Tree hands it.  Every operation
takes the slot geometry of the page's *current* free window — it may have
shrunk since the item was written — memoised by ``(page size, window)``,
its whole input, so no entry can go stale.

Key invariants (and where the paper states them):

* Cache reads/writes never dirty the page — "cache modifications do not
  dirty the page" (§2.1.1).  The cache layer itself never calls unpin; the
  caller holds the pin and decides dirtiness (always False for cache-only
  touches).
* A slot is empty iff its checksum fails (zeroed slots fail trivially);
  index growth can therefore clobber any slot at any time.
* The cache never grows the window or blocks an index insert.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx
from dataclasses import dataclass, field

from repro.core.index_cache.layout import (
    CacheGeometry,
    ITEM_CHECKSUM_SIZE,
    ITEM_HEADER_SIZE,
    ZERO_CHECKSUM,
    checksum,
    item_size_for_payload,
)
from repro.core.index_cache.policy import CachePolicy, SwapPolicy
from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng

#: Geometries one cache keeps, oldest dropped first (an index sees hundreds).
GEOMETRY_MEMO_CAP = 1024

#: ``CacheStats`` fields the registry reads (``MetricsRegistry.adopt``).
_ADOPTED = {
    "probes": "index_cache.swap.probes",
    "hits": "index_cache.swap.hit",
    "misses": "index_cache.swap.miss",
    "promotions": "index_cache.swap.promotions",
    "inserts": "index_cache.swap.inserts",
    "evictions": "index_cache.swap.evictions",
    "skipped_no_room": "index_cache.swap.skipped_no_room",
}


@dataclass
class CacheStats:
    """Aggregate counters across every page this cache instance touched."""

    probes: int = 0
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    promotions: int = 0
    skipped_no_room: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0


class IndexCache:
    """Reads and writes cache items inside leaf-page free windows."""

    def __init__(
        self,
        payload_size: int,
        entry_size: int,
        policy: CachePolicy | None = None,
        rng: DeterministicRng | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """
        Args:
            payload_size: width of the cached field payload, bytes.
            entry_size: the leaf's key+value record width (the paper's K),
                needed for the stable-point formula.
            policy: replacement policy; defaults to the paper's SwapPolicy.
            rng: random source for the default policy.
            registry: metrics sink for ``index_cache.swap.*`` instruments.
        """
        self.payload_size = payload_size
        self._entry_size = entry_size
        self.item_size = item_size_for_payload(payload_size)
        self._item = struct.Struct(f">{self.item_size - ITEM_CHECKSUM_SIZE}sH")
        if policy is None:
            policy = SwapPolicy(rng if rng is not None else DeterministicRng(0))
        self.policy = policy
        self._geometries: dict[tuple[int, int, int], CacheGeometry] = {}
        self.stats = CacheStats()
        resolve_registry(registry).adopt(self.stats, _ADOPTED)

    # -- geometry ------------------------------------------------------------

    def geometry(self, page: SlottedPage) -> CacheGeometry:
        """Slot layout for the page's current free window (memoised)."""
        key = (page.size, *page.free_window())
        memo = self._geometries
        try:
            return memo[key]
        except KeyError:
            if len(memo) >= GEOMETRY_MEMO_CAP:
                del memo[next(iter(memo))]
            geo = memo[key] = CacheGeometry(*key, self.item_size, self._entry_size)
            return geo

    def capacity(self, page: SlottedPage) -> int:
        """How many items this page can hold right now."""
        return self.geometry(page).num_slots

    # -- slot I/O --------------------------------------------------------------

    def _item_at(self, buf: bytearray, off: int) -> tuple[bytes, bytes] | None:
        """``(tuple_id, payload)`` of the valid item starting at ``off``."""
        body, stored = self._item.unpack_from(buf, off)
        if stored and (crc_hqx(body, 0) or ZERO_CHECKSUM) == stored:
            return body[:ITEM_HEADER_SIZE], body[ITEM_HEADER_SIZE:]
        return None  # empty, or clobbered by index growth

    def read_slot(
        self, page: SlottedPage, geo: CacheGeometry, slot: int
    ) -> tuple[bytes, bytes] | None:
        """``(tuple_id, payload)`` if the slot holds a valid item, else None."""
        return self._item_at(page.buffer, geo.slot_offset(slot))

    def write_slot(
        self,
        page: SlottedPage,
        geo: CacheGeometry,
        slot: int,
        tuple_id: bytes,
        payload: bytes,
    ) -> None:
        """Write one item; does not dirty the page (caller's contract)."""
        if len(tuple_id) != ITEM_HEADER_SIZE:
            raise ReproError(
                f"tuple_id must be {ITEM_HEADER_SIZE} bytes, got {len(tuple_id)}"
            )
        if len(payload) != self.payload_size:
            raise ReproError(
                f"payload must be {self.payload_size} bytes, got {len(payload)}"
            )
        body = tuple_id + payload
        self._item.pack_into(page.buffer, geo.slot_offset(slot), body, checksum(body))

    def clear_slot(self, page: SlottedPage, geo: CacheGeometry, slot: int) -> None:
        """Zero one slot."""
        off = geo.slot_offset(slot)
        page.buffer[off : off + self.item_size] = bytes(self.item_size)

    def zero_window(self, page: SlottedPage) -> None:
        """Zero the entire free window (full-page cache invalidation)."""
        lo, hi = page.free_window()
        page.buffer[lo:hi] = bytes(hi - lo)

    # -- scanning ----------------------------------------------------------------

    def _items(self, page: SlottedPage, geo: CacheGeometry) -> dict[int, bytes]:
        """``{slot: tuple_id | payload}`` of every valid item, in slot order.

        One C-driven pass over the window: ``iter_unpack`` splits it into
        ``(body, stored)`` pairs and one ``crc_hqx`` per non-zero checksum
        field decides; no Python frame runs per slot.
        """
        lo = geo.first_slot_index * self.item_size
        window = memoryview(page.buffer)[lo : lo + geo.num_slots * self.item_size]
        return {
            slot: body
            for slot, (body, stored) in enumerate(self._item.iter_unpack(window))
            if stored and (crc_hqx(body, 0) or ZERO_CHECKSUM) == stored
        }

    def occupancy(
        self, page: SlottedPage, geo: CacheGeometry | None = None
    ) -> tuple[list[int], list[int]]:
        """``(free_slots, occupied_slots)`` for the current geometry."""
        if geo is None:
            geo = self.geometry(page)
        items = self._items(page, geo)
        return [s for s in range(geo.num_slots) if s not in items], list(items)

    def entries(self, page: SlottedPage) -> list[tuple[int, bytes, bytes]]:
        """Every valid item as ``(slot, tuple_id, payload)``."""
        return [
            (slot, body[:ITEM_HEADER_SIZE], body[ITEM_HEADER_SIZE:])
            for slot, body in self._items(page, self.geometry(page)).items()
        ]

    def find(
        self, page: SlottedPage, geo: CacheGeometry, tuple_id: bytes
    ) -> tuple[int, bytes] | None:
        """Scan the slots for ``tuple_id``; returns ``(slot, payload)``.

        Uses ``bytes.find`` to locate candidate positions quickly, then
        validates alignment and checksum — semantically identical to the
        linear scan the paper describes, just not O(n) in Python-level
        work.
        """
        if geo.num_slots == 0:
            return None
        buf = page.buffer
        base = geo.first_slot_index * self.item_size
        end = base + geo.num_slots * self.item_size
        pos = buf.find(tuple_id, base, end)
        while pos != -1:
            rel = pos - base
            if rel % self.item_size == 0:  # aligned: the tuple id matches
                body, stored = self._item.unpack_from(buf, pos)
                if stored and (crc_hqx(body, 0) or ZERO_CHECKSUM) == stored:
                    return rel // self.item_size, body[ITEM_HEADER_SIZE:]
            pos = buf.find(tuple_id, pos + 1, end)
        return None

    # -- the paper's operations -------------------------------------------------

    def probe(self, page: SlottedPage, tuple_id: bytes) -> bytes | None:
        """Look up ``tuple_id`` in the page's cache (§2.1.1 read path).

        On a hit the policy may migrate the item one bucket closer to the
        stable point (the "swap" in Swap); the displaced occupant, if any,
        takes the vacated slot.
        """
        geo = self.geometry(page)
        self.stats.probes += 1
        found = self.find(page, geo, tuple_id)
        if found is None:
            self.stats.misses += 1
            return None
        slot, payload = found
        self.stats.hits += 1
        target = self.policy.on_hit(geo, slot, page.page_id)
        if target is not None and target != slot:
            self._swap_slots(page, geo, slot, target)
            self.stats.promotions += 1
        return payload

    def insert(
        self, page: SlottedPage, tuple_id: bytes, payload: bytes
    ) -> bool:
        """Cache an item after a miss (§2.1.1 fill path).

        Returns False when the window has no slot at all (page too full) or
        the policy declines.  Never splits pages, never dirties.
        """
        geo = self.geometry(page)
        if geo.num_slots == 0:
            self.stats.skipped_no_room += 1
            return False
        free, occupied = self.occupancy(page, geo)
        slot = self.policy.choose_slot(geo, free, occupied, page.page_id)
        if slot is None:
            self.stats.skipped_no_room += 1
            return False
        if slot in occupied:
            self.stats.evictions += 1
            self.policy.on_evict(slot, page.page_id)
        self.write_slot(page, geo, slot, tuple_id, payload)
        self.policy.on_insert(slot, page.page_id)
        self.stats.inserts += 1
        return True

    def invalidate_tuple(self, page: SlottedPage, tuple_id: bytes) -> bool:
        """Drop one tuple's item from this page's cache if present."""
        geo = self.geometry(page)
        found = self.find(page, geo, tuple_id)
        if found is None:
            return False
        self.clear_slot(page, geo, found[0])
        return True

    # -- internals ------------------------------------------------------------

    def _swap_slots(
        self, page: SlottedPage, geo: CacheGeometry, a: int, b: int
    ) -> None:
        """Move the item in ``a``, which the caller just verified, to ``b``.

        A valid item's bytes *are* ``tid | payload | crc`` of those fields,
        so moving them verbatim writes what :meth:`write_slot` would; only
        ``b`` is checksummed, to decide between exchanging the two items
        and dropping whatever clobbered bytes ``b`` held.
        """
        buf = page.buffer
        size = self.item_size
        off_a, off_b = geo.slot_offset(a), geo.slot_offset(b)
        moved = bytes(buf[off_a : off_a + size])
        if self._item_at(buf, off_b) is None:
            buf[off_a : off_a + size] = bytes(size)
        else:
            buf[off_a : off_a + size] = buf[off_b : off_b + size]
        buf[off_b : off_b + size] = moved
