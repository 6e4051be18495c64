"""Heap file: unordered tuple storage in slotted pages.

Tuples are addressed by :class:`Rid` ``(page_id, slot)``.  Two placement
modes matter to the paper:

* **first-fit** (default): inserts reuse free space anywhere, which over
  time scatters logically-related tuples — the locality waste of §3.
* **append-only**: inserts always go to the tail page.  The clustering
  operator of §3.1 relocates hot tuples by delete + append, so appending
  must be cheap and deterministic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.errors import InvalidRidError, PageFullError
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import EMPTY_PAGE_OVERHEAD, PageType
from repro.storage.freespace import FreeSpaceMap
from repro.storage.page import SlottedPage

_RID = struct.Struct("<II")  # page u32 | slot u32


@dataclass(frozen=True, order=True)
class Rid:
    """Record id: physical address of a tuple."""

    page_id: int
    slot: int

    def __repr__(self) -> str:
        return f"Rid({self.page_id}, {self.slot})"

    def to_bytes(self) -> bytes:
        """8-byte encoding (page u32 | slot u32), used as B+Tree values
        and as the cache's tuple id."""
        return _RID.pack(self.page_id, self.slot)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Rid":
        if len(data) != 8:
            raise InvalidRidError(f"rid encoding must be 8 bytes, got {len(data)}")
        return cls(*_RID.unpack(data))


#: Width of an encoded Rid; also the B+Tree value size for RID indexes.
RID_SIZE = 8


class HeapFile:
    """A growable bag of fixed- or variable-length records."""

    def __init__(self, pool: BufferPool, append_only: bool = False) -> None:
        self.pool = pool
        self.append_only = append_only
        self._page_ids: list[int] = []
        self._page_id_set: set[int] = set()
        self._fsm = FreeSpaceMap()
        self.num_records = 0
        #: Largest record an empty page can take; anything else is refused.
        self._max_record = pool.disk.page_size - EMPTY_PAGE_OVERHEAD

    # -- properties ----------------------------------------------------------

    @property
    def page_ids(self) -> list[int]:
        """Page ids owned by this heap, in allocation order."""
        return list(self._page_ids)

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def size_bytes(self) -> int:
        """Allocated size: pages × page size."""
        return len(self._page_ids) * self.pool.disk.page_size

    # -- operations ----------------------------------------------------------

    def insert(self, data: bytes, lsn: int | None = None) -> Rid:
        """Insert a record, returning its physical address.

        ``lsn`` stamps the dirtied frame for the WAL's flush-before-evict
        rule (callers reserve it before applying, then log the record
        with the RID this returns).
        """
        size = len(data)
        page_id = self._choose_page(size)
        if page_id is None:
            if not 0 < size <= self._max_record:
                raise PageFullError(f"no empty page can take a {size}-byte record")
            page = self.pool.new_page(PageType.HEAP)
            page_id = page.page_id
            self._page_ids.append(page_id)
            self._page_id_set.add(page_id)
            try:
                slot = page.insert(data)
            finally:
                self.pool.unpin(page_id, dirty=True, lsn=lsn)
            self._fsm.note(page_id, self._free_after(page))
        else:
            with self.pool.page(page_id, dirty=True, lsn=lsn) as page:
                slot = page.insert(data)
                self._fsm.note(page_id, self._free_after(page))
        self.num_records += 1
        return Rid(page_id, slot)

    def fetch(self, rid: Rid) -> bytes:
        """Read the record at ``rid``."""
        self._check_owned(rid)
        with self.pool.page(rid.page_id) as page:
            return page.read(rid.slot)

    def fetch_many(self, rids: list[Rid]) -> dict[Rid, bytes]:
        """Read a batch of records, pinning each heap page once.

        The page-ordered RID batch scan of the batched read path: RIDs
        are grouped by page through :meth:`BufferPool.fetch_many` (which
        dedupes and sorts), so ``k`` records on one page cost one pool
        access instead of ``k``.  Duplicate RIDs are fine.  Returns
        ``rid -> record bytes`` for every requested RID.

        Batches touching more distinct pages than the pool can pin at
        once are split into page-ordered chunks of at most half the pool
        capacity, so an arbitrarily large batch never deadlocks eviction
        (and each page is still pinned exactly once overall).
        """
        for rid in rids:
            self._check_owned(rid)
        by_page: dict[int, list[Rid]] = {}
        for rid in rids:
            by_page.setdefault(rid.page_id, []).append(rid)
        out: dict[Rid, bytes] = {}
        ordered = sorted(by_page)
        chunk = max(1, self.pool.capacity // 2)
        for i in range(0, len(ordered), chunk):
            page_ids = ordered[i:i + chunk]
            with self.pool.pages_many(page_ids) as pages:
                for page_id in page_ids:
                    page = pages[page_id]
                    for rid in by_page[page_id]:
                        if rid not in out:
                            out[rid] = page.read(rid.slot)
        return out

    def update(self, rid: Rid, data: bytes, lsn: int | None = None) -> None:
        """Overwrite the record at ``rid`` in place (same length)."""
        self._check_owned(rid)
        with self.pool.page(rid.page_id, dirty=True, lsn=lsn) as page:
            page.update(rid.slot, data)

    def delete(self, rid: Rid, lsn: int | None = None) -> None:
        """Delete the record at ``rid``."""
        self._check_owned(rid)
        with self.pool.page(rid.page_id, dirty=True, lsn=lsn) as page:
            page.delete(rid.slot)
            # Tombstoned record bytes are not reclaimed until compaction, so
            # the page's free window is unchanged; only note directory reuse.
            self._fsm.note(rid.page_id, self._free_after(page))
        self.num_records -= 1

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Yield every live record in page order (a full table scan)."""
        for page_id in self._page_ids:
            with self.pool.page(page_id) as page:
                for slot, data in page.records():
                    yield Rid(page_id, slot), data

    def records(self) -> Iterator[bytes]:
        """:meth:`scan` without a ``Rid`` per row, for the row executor."""
        for page_id in self._page_ids:
            with self.pool.page(page_id) as page:
                for _, data in page.records():
                    yield data

    def adopt_pages(self, page_ids: list[int]) -> None:
        """Take ownership of existing heap pages (WAL-replay restore).

        Replaces any current page list.  Free-space accounting and the
        live-record count are rebuilt by walking the adopted pages, so
        the heap behaves exactly as if it had produced them itself.
        """
        self._page_ids = list(page_ids)
        self._page_id_set = set(self._page_ids)
        self._fsm = FreeSpaceMap()
        count = 0
        for page_id in self._page_ids:
            with self.pool.page(page_id) as page:
                self._fsm.note(page_id, self._free_after(page))
                count += sum(1 for _ in page.live_slots())
        self.num_records = count

    def owns_page(self, page_id: int) -> bool:
        """True if ``page_id`` belongs to this heap."""
        return page_id in self._page_id_set

    # -- internals -----------------------------------------------------------

    def _choose_page(self, record_len: int) -> int | None:
        # A new record needs its bytes plus possibly a directory entry; ask
        # for the conservative amount.
        need = record_len + 4
        if self.append_only:
            if self._page_ids:
                last = self._page_ids[-1]
                if self._fsm.free_of(last) >= need:
                    return last
            return None
        return self._fsm.find_page_with(need)

    @staticmethod
    def _free_after(page: SlottedPage) -> int:
        return page.free_bytes

    def _check_owned(self, rid: Rid) -> None:
        self._check_page(rid.page_id)

    def _check_page(self, page_id: int) -> None:
        if page_id not in self._page_id_set:
            raise InvalidRidError(f"page {page_id} does not belong to this heap")
