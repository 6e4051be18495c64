"""Free-space map: which heap page can absorb the next insert.

A dict of ``page_id -> free bytes`` kept approximately up to date by the
heap file, plus **size-bucketed candidate lists** so picking an insert
target is O(1)-ish instead of a linear scan over every page the heap ever
touched (the old first-fit walk made every insert O(#pages) — a hot-path
tax that grows with the table).

Bucket ``b`` holds the pages whose recorded free space lies in
``[2^(b-1), 2^b - 1]``.  A request for ``need`` bytes starts at the
smallest bucket that *could* contain a qualifying page (checking members
individually, since the bucket floor may sit below ``need``) and walks
upward; any member of a strictly higher bucket qualifies outright.  The
search is therefore approximate **best fit** — smallest sufficient bucket
first, insertion order within a bucket — which also fragments less than
the first-fit scan it replaces.

The interesting policy knob is ``append_only`` placement, which is what
the paper's clustering operator relies on (§3.1: relocate hot tuples "by
deleting then appending them to the end of the table"); append-only heaps
consult only :meth:`free_of` on the tail page, untouched by bucketing.
"""

from __future__ import annotations


class FreeSpaceMap:
    """Tracks per-page free bytes and picks insert targets."""

    def __init__(self) -> None:
        self._free: dict[int, int] = {}
        #: bucket index -> insertion-ordered set of page ids (dict-as-set).
        self._buckets: dict[int, dict[int, None]] = {}
        #: Per-page free-count inspections done by :meth:`find_page_with`;
        #: the deterministic cost measure benchmarks gate on (the linear
        #: scan this design replaced examined O(#pages) per call).
        self.pages_examined = 0

    @staticmethod
    def _bucket_of(free_bytes: int) -> int:
        """Bucket ``b`` covers free byte counts in ``[2^(b-1), 2^b - 1]``."""
        return free_bytes.bit_length()

    def note(self, page_id: int, free_bytes: int) -> None:
        """Record the current free-byte count for a page."""
        old = self._free.get(page_id)
        new_bucket = self._bucket_of(free_bytes)
        if old is None:
            self._buckets.setdefault(new_bucket, {})[page_id] = None
        else:
            old_bucket = self._bucket_of(old)
            if old_bucket != new_bucket:
                self._bucket_discard(old_bucket, page_id)
                self._buckets.setdefault(new_bucket, {})[page_id] = None
        self._free[page_id] = free_bytes

    def free_of(self, page_id: int) -> int:
        return self._free.get(page_id, 0)

    def find_page_with(self, need_bytes: int) -> int | None:
        """A page with at least ``need_bytes`` free, else ``None``.

        Deterministic approximate best fit: candidate buckets are scanned
        smallest-sufficient-first; within a bucket, insertion order.  Only
        the boundary bucket inspects per-page counts — every page in a
        higher bucket is guaranteed to fit.
        """
        if not self._buckets:
            return None
        need = max(1, need_bytes)
        # Smallest bucket whose ceiling (2^b - 1) can reach ``need``.
        start = need.bit_length()
        top = max(self._buckets)
        for bucket_idx in range(start, top + 1):
            bucket = self._buckets.get(bucket_idx)
            if not bucket:
                continue
            if bucket_idx == start:
                for page_id in bucket:
                    self.pages_examined += 1
                    if self._free[page_id] >= need:
                        return page_id
            else:
                # Bucket floor 2^(b-1) >= 2^start > need: any member fits.
                self.pages_examined += 1
                return next(iter(bucket))
        return None

    # -- internals -----------------------------------------------------------

    def _bucket_discard(self, bucket_idx: int, page_id: int) -> None:
        bucket = self._buckets.get(bucket_idx)
        if bucket is not None:
            bucket.pop(page_id, None)
            if not bucket:
                del self._buckets[bucket_idx]
