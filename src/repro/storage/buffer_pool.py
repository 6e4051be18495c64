"""Buffer pool: the RAM boundary where the paper's costs are charged.

Every page access in the system is pinned by the one body that
:meth:`BufferPool.fetch` and :meth:`BufferPool.page` share.  A hit costs
one buffer-pool memory access; a miss additionally costs a disk read (and
possibly a dirty write-back).  The cost model hooks are how the Figure
2(b)/2(c)/3 experiments translate hit/miss behaviour into simulated time.

Cache writes from the index cache deliberately do **not** dirty pages
(§2.1.1: "cache modifications do not dirty the page") — callers signal
dirtiness explicitly at unpin time, and the cache layer never does.

The pool is also the engine's integrity boundary.  Every write-back stamps
a CRC32 into the page header (and remembers it as the page's *expected*
stamp); every fetch miss verifies both, so torn writes, at-rest bit flips,
and stuck pages surface as :class:`~repro.errors.CorruptPageError` instead
of silently wrong results.  Transient I/O faults are retried under a
:class:`~repro.storage.retry.RetryPolicy` with backoff charged through the
cost model; confirmed-corrupt pages are quarantined so a recovery layer
(:mod:`repro.faults.recovery`) can rebuild their contents elsewhere.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.errors import (
    BufferPoolError,
    CorruptPageError,
    RetryExhaustedError,
    TransientIOError,
)
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.storage.page import (
    SlottedPage,
    page_checksum_ok,
    read_page_checksum,
    stamp_page_checksum,
)
from repro.storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy

#: The pool's own counts the registry reads (``MetricsRegistry.adopt``),
#: with no pool -> registry reference (that cycle would leave every
#: dropped engine to the cycle collector).
_ADOPTED = {
    "hits": "bufferpool.hit",
    "misses": "bufferpool.miss",
    "evictions": "bufferpool.eviction",
}


class CostHook(Protocol):
    """What the buffer pool needs from a cost model (see ``repro.sim``)."""

    def on_bp_hit(self) -> None: ...

    def on_bp_miss(self) -> None: ...

    def on_disk_write(self) -> None: ...


@dataclass
class _Frame:
    """A resident page; also a read :meth:`BufferPool.page`'s ``with`` item."""

    page_id: int
    #: The one view over the frame's bytes, built at install for every pin.
    view: SlottedPage
    pin_count: int = 0
    dirty: bool = False
    #: Highest WAL LSN stamped on this frame (0 = no logged change).
    #: The flush-before-evict rule: the log must be durable through
    #: this LSN before the frame's bytes may reach disk.
    page_lsn: int = 0
    #: LSN of the *first* change since the frame was last clean — the
    #: fuzzy-checkpoint ``redo_from`` contribution.  Reset when the
    #: frame is flushed.
    rec_lsn: int = 0
    #: Fetches served by this frame since it was installed — the page's
    #: *temperature*.  Recorded into the ``bufferpool.page_temperature``
    #: histogram when the frame leaves the pool, so the telemetry layer
    #: sees the hot/cold skew of what eviction is churning through.
    temperature: int = 0

    def __enter__(self) -> SlottedPage:
        return self.view

    def __exit__(self, exc_type, exc, tb) -> None:
        self.pin_count -= 1


class BufferPool:
    """Fixed-capacity page cache over a :class:`SimulatedDisk`."""

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity_pages: int,
        cost_hook: CostHook | None = None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        verify_checksums: bool = True,
        wal=None,
    ) -> None:
        if capacity_pages <= 0:
            raise BufferPoolError("capacity must be at least one page")
        self.disk = disk
        #: Optional repro.wal.log.WalWriter (duck-typed; this module must
        #: not import repro.wal).  When set, every write-back first calls
        #: ``wal.flush_to(frame.page_lsn)`` — the WAL rule.
        self.wal = wal
        self.capacity = capacity_pages
        self._cost = cost_hook
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self._verify_checksums = verify_checksums
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: page id -> CRC32 of the bytes this pool last wrote back; the
        #: freshness half of validation (catches stuck pages whose stale
        #: contents still carry an internally consistent stamp).
        self._expected_crc: dict[int, int] = {}
        self._quarantined: set[int] = set()
        reg = resolve_registry(registry)
        self._m_writeback = reg.counter("bufferpool.writeback")
        self._m_resident = reg.gauge("bufferpool.resident_pages")
        self._m_quarantine = reg.gauge("bufferpool.quarantined_pages")
        self._m_batch_requests = reg.counter("bufferpool.batch.requests")
        self._m_batch_distinct = reg.counter("bufferpool.batch.distinct")
        self._m_temperature = reg.histogram("bufferpool.page_temperature")
        self._m_detected = reg.counter("faults.detected")
        self._m_recovered = reg.counter("faults.recovered")
        self._m_unrecoverable = reg.counter("faults.unrecoverable")
        self._m_retries = reg.counter("faults.retries")
        reg.adopt(self, _ADOPTED)

    # -- properties ----------------------------------------------------------

    @property
    def pinned_pages(self) -> list[int]:
        """Page ids currently pinned (should be empty between operations;
        a non-empty result outside an operation is a pin leak)."""
        return [
            pid for pid, frame in self._frames.items() if frame.pin_count > 0
        ]

    @property
    def quarantined_pages(self) -> frozenset[int]:
        """Pages confirmed corrupt and fenced off from further I/O."""
        return frozenset(self._quarantined)

    def set_capacity(self, capacity_pages: int) -> None:
        """Resize the pool in place (the adaptive partition knob).

        Growing just raises the ceiling; shrinking evicts surplus frames
        immediately (dirty ones are written back through the normal
        WAL-respecting path) so the pool honours the new budget before
        returning.  Pinned frames cannot be evicted, so a shrink below
        the current pin count is refused rather than left half-applied.
        """
        if capacity_pages <= 0:
            raise BufferPoolError("capacity must be at least one page")
        pinned = sum(1 for f in self._frames.values() if f.pin_count > 0)
        if pinned > capacity_pages:
            raise BufferPoolError(
                f"cannot shrink to {capacity_pages} frames: "
                f"{pinned} frames are pinned"
            )
        self.capacity = capacity_pages
        while len(self._frames) > self.capacity:
            self._evict_one()

    def dirty_rec_lsns(self) -> list[int]:
        """``rec_lsn`` of every dirty resident frame with a logged change.

        The fuzzy-checkpoint input: the minimum of these is the oldest
        LSN whose effects might not be on disk yet.
        """
        return [
            f.rec_lsn
            for f in self._frames.values()
            if f.dirty and f.rec_lsn > 0
        ]

    # -- page lifecycle ------------------------------------------------------

    def new_page(self, page_type: PageType) -> SlottedPage:
        """Allocate and format a fresh page; returned pinned and dirty."""
        page_id = self.disk.allocate_page()
        frame = self._install(page_id, bytearray(self.disk.page_size))
        frame.view.reformat(page_id, page_type)
        frame.pin_count += 1
        frame.dirty = True
        return frame.view

    def fetch(self, page_id: int) -> SlottedPage:
        """Pin a page and return the view over its frame bytes.

        Raises :class:`CorruptPageError` if the page is quarantined or its
        bytes fail checksum/freshness validation even after the policy's
        corrective re-reads; raises :class:`RetryExhaustedError` if the
        disk keeps failing transiently.  The page is pinned only on
        success, so failed fetches never leak pins.
        """
        return self._pin(page_id).view

    def _pin(self, page_id: int) -> _Frame:
        """The one pin body, :meth:`fetch`'s and :meth:`page`'s."""
        if page_id in self._quarantined:
            self._m_detected.inc()
            raise CorruptPageError(page_id, "is quarantined")
        frame = self._frames.get(page_id)
        if frame is not None:
            self.hits += 1
            if self._cost is not None:
                self._cost.on_bp_hit()
            self._frames.move_to_end(page_id)
        else:
            self.misses += 1
            if self._cost is not None:
                self._cost.on_bp_miss()
            data = self._read_page_checked(page_id)
            frame = self._install(page_id, data)
        frame.temperature += 1
        frame.pin_count += 1
        return frame

    def unpin(self, page_id: int, dirty: bool = False, lsn: int | None = None) -> None:
        """Release one pin; ``dirty=True`` schedules a write-back.

        ``lsn`` stamps the frame with the WAL LSN of the change just
        applied (only meaningful with ``dirty=True``): ``page_lsn``
        advances to it and ``rec_lsn`` latches it if this is the first
        change since the frame was last clean.
        """
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_id} is not pinned")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True
            if lsn is not None:
                if lsn > frame.page_lsn:
                    frame.page_lsn = lsn
                if frame.rec_lsn == 0:
                    frame.rec_lsn = lsn

    def page(
        self, page_id: int, dirty: bool = False, lsn: int | None = None
    ) -> "_Frame | _WritePin":
        """Pin for the duration of a ``with`` block.

        The pin is taken here, at the call: the handle returned carries
        the already-pinned page, so it is only ever a ``with`` item.  A
        read pin's handle is the frame itself; its exit drops the pin.
        ``dirty=True`` marks the page dirty only when the body completes;
        ``lsn`` is passed through to :meth:`unpin` on that success path.
        If the body raises, the mutation may be half-applied, so the frame
        is restored from a pre-entry snapshot and unpinned *clean* —
        scheduling write-back of torn in-memory state is exactly the
        corruption this module exists to prevent.
        """
        frame = self._pin(page_id)
        if dirty:
            return _WritePin(self, page_id, frame.view, lsn)
        return frame

    def fetch_many(self, page_ids: Iterable[int]) -> dict[int, SlottedPage]:
        """Pin a batch of pages, each **distinct** page exactly once.

        This is the batched-read fast path: callers with a multi-key
        operation (RID batch scan, shared-descent index probe, workload
        replay) hand over every page they will touch and the pool

        * dedupes the request list, so a page asked for ``k`` times is
          pinned (and charged) once instead of ``k`` times, and
        * fetches misses in ascending page order, so disk access is
          sequential-friendly instead of probe-ordered.

        Returns ``page_id -> SlottedPage`` for the distinct pages.  Each
        page carries one pin; release with :meth:`unpin` per page or use
        :meth:`pages_many`.  On any fetch error the pins already taken
        are released before the error propagates, so failed batches never
        leak pins.
        """
        ids = list(page_ids)
        distinct = sorted(set(ids))
        pages: dict[int, SlottedPage] = {}
        try:
            for page_id in distinct:
                pages[page_id] = self.fetch(page_id)
        except BaseException:
            for page_id in pages:
                self.unpin(page_id)
            raise
        self._m_batch_requests.inc(len(ids))
        self._m_batch_distinct.inc(len(distinct))
        return pages

    def pages_many(self, page_ids: Iterable[int]) -> "_BatchPin":
        """Pin a batch for the duration of a ``with`` block (read path).

        The pins are taken here, at the call, as in :meth:`page`.
        All pages are unpinned **clean** on exit: the batched read path
        never dirties pages (cache fills deliberately don't dirty — see
        the module docstring), and writers use :meth:`page` per page.
        """
        return _BatchPin(self, self.fetch_many(page_ids))

    def is_resident(self, page_id: int) -> bool:
        """True if the page currently occupies a frame (no cost charged)."""
        return page_id in self._frames

    # -- write-back ----------------------------------------------------------

    def flush(self, page_id: int) -> None:
        """Write one page back to disk if dirty (stamping its checksum)."""
        frame = self._frames.get(page_id)
        if frame is None:
            return
        if frame.dirty:
            self._write_back(frame)
            frame.dirty = False
            frame.rec_lsn = 0

    def flush_all(self) -> None:
        """Write back every dirty resident page."""
        for page_id in list(self._frames):
            self.flush(page_id)

    def drop_clean(self) -> None:
        """Evict every unpinned page (flushing dirty ones first).

        Experiments use this to cold-start the pool between phases.
        """
        for page_id in list(self._frames):
            frame = self._frames[page_id]
            if frame.pin_count == 0:
                self.flush(page_id)
                self._m_temperature.record(frame.temperature)
                del self._frames[page_id]
        self._m_resident.set(len(self._frames))

    # -- quarantine ----------------------------------------------------------

    def quarantine(self, page_id: int) -> None:
        """Fence off a confirmed-corrupt page.

        The frame (if resident) is discarded without write-back and every
        future :meth:`fetch` fails fast with :class:`CorruptPageError`
        until a recovery layer rebuilds the page's contents elsewhere.
        """
        frame = self._frames.get(page_id)
        if frame is not None and frame.pin_count > 0:
            raise BufferPoolError(f"cannot quarantine pinned page {page_id}")
        self._frames.pop(page_id, None)
        self._quarantined.add(page_id)
        self._expected_crc.pop(page_id, None)
        self._m_resident.set(len(self._frames))
        self._m_quarantine.set(len(self._quarantined))

    # -- internals -----------------------------------------------------------

    def _charge(self, ns: float) -> None:
        """Charge backoff latency if the cost hook carries a clock."""
        if ns <= 0 or self._cost is None:
            return
        charge = getattr(self._cost, "charge", None)
        if charge is not None:
            charge(ns)

    def _with_retry(self, io, page_id: int, *data: bytes):
        """One logical read (``io`` = ``disk.read_page``) or write
        (``disk.write_page``, with ``data``): transient faults retried
        with backoff.  Returns what ``io`` returns."""
        incident = False
        attempt = 0
        while True:
            try:
                result = io(page_id, *data)
            except TransientIOError as exc:
                if not incident:
                    incident = True
                    self._m_detected.inc()
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    self._m_unrecoverable.inc()
                    raise RetryExhaustedError(
                        f"{'write' if data else 'read'} of page {page_id} "
                        f"failed {self.retry_policy.max_attempts} times: {exc}"
                    ) from exc
                self._m_retries.inc()
                self._charge(self.retry_policy.backoff_for(attempt - 1))
                continue
            if incident:
                self._m_recovered.inc()
            return result

    def _read_page_checked(self, page_id: int) -> bytearray:
        """Read + validate a page, healing transient read corruption.

        Integrity: the CRC32 stamp must match the bytes.  Freshness: if
        this pool wrote the page before, the stamp must equal the CRC it
        wrote (else the disk served stale bytes — a stuck page).  A
        mismatch gets up to ``corrupt_rereads`` corrective re-reads (a
        read-path bit flip heals; at-rest damage does not); confirmed
        corruption quarantines the page and raises.
        """
        raw = self._with_retry(self.disk.read_page, page_id)
        if self._page_ok(page_id, raw):
            return bytearray(raw)
        self._m_detected.inc()
        for reread in range(self.retry_policy.corrupt_rereads):
            self._charge(self.retry_policy.backoff_for(reread))
            raw = self._with_retry(self.disk.read_page, page_id)
            if self._page_ok(page_id, raw):
                self._m_recovered.inc()
                return bytearray(raw)
        self.quarantine(page_id)
        raise CorruptPageError(page_id, "failed checksum validation")

    def _page_ok(self, page_id: int, raw: bytes) -> bool:
        if not self._verify_checksums:
            return True
        if not page_checksum_ok(raw):
            return False
        expected = self._expected_crc.get(page_id)
        return expected is None or read_page_checksum(raw) == expected

    def restore_page(self, page_id: int, data: bytes) -> None:
        """Overwrite a page's on-disk bytes with recovered contents.

        The recovery-layer entry point for WAL-rebuilt heap pages: the
        quarantine (if any) is lifted, the bytes are stamped and written,
        and the expected-CRC freshness record is updated so the next
        fetch validates against the *restored* contents.  The page must
        not be resident (quarantine already evicted it; callers
        restoring a non-quarantined page should flush + drop it first).
        """
        if len(data) != self.disk.page_size:
            raise BufferPoolError(
                f"restored page must be {self.disk.page_size} bytes, "
                f"got {len(data)}"
            )
        if page_id in self._frames:
            raise BufferPoolError(
                f"cannot restore resident page {page_id}; evict it first"
            )
        buf = bytearray(data)
        crc = stamp_page_checksum(buf) if self._verify_checksums else None
        self._with_retry(self.disk.write_page, page_id, bytes(buf))
        if crc is not None:
            self._expected_crc[page_id] = crc
        if self._cost is not None:
            self._cost.on_disk_write()
        self._quarantined.discard(page_id)
        self._m_quarantine.set(len(self._quarantined))

    def _write_back(self, frame: _Frame) -> None:
        """Stamp, write (with retry), and record the expected stamp."""
        if self.wal is not None and frame.page_lsn > 0:
            # The WAL rule: no page reaches disk ahead of its log.
            self.wal.flush_to(frame.page_lsn)
        crc = None
        if self._verify_checksums:
            crc = stamp_page_checksum(frame.view.buffer)
        self._with_retry(self.disk.write_page, frame.page_id, bytes(frame.view.buffer))
        if crc is not None:
            self._expected_crc[frame.page_id] = crc
        self._m_writeback.inc()
        if self._cost is not None:
            self._cost.on_disk_write()

    def _install(self, page_id: int, data: bytearray) -> _Frame:
        if len(self._frames) >= self.capacity:
            self._evict_one()
        frame = _Frame(page_id=page_id, view=SlottedPage(data))
        self._frames[page_id] = frame
        self._m_resident.set(len(self._frames))
        return frame

    def _evict_one(self) -> None:
        victim = self._pick_lru_victim()
        frame = self._frames[victim]
        if frame.dirty:
            self._write_back(frame)
        self._m_temperature.record(frame.temperature)
        del self._frames[victim]
        self.evictions += 1
        self._m_resident.set(len(self._frames))

    def _pick_lru_victim(self) -> int:
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                return page_id
        raise BufferPoolError("all frames pinned; cannot evict")


class _WritePin:
    """``with`` item of :meth:`BufferPool.page` with ``dirty=True``:
    snapshot at the pin, dirty only on success."""

    __slots__ = ("_pool", "_page_id", "_page", "_lsn", "_snapshot")

    def __init__(self, pool, page_id, page, lsn: int | None) -> None:
        self._pool = pool
        self._page_id = page_id
        self._page = page
        self._lsn = lsn
        self._snapshot = bytes(page.buffer)

    def __enter__(self) -> SlottedPage:
        return self._page

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._pool.unpin(self._page_id, dirty=True, lsn=self._lsn)
        else:  # any BaseException; the page's buffer is the frame's bytes
            self._page.restore(self._snapshot)
            self._pool.unpin(self._page_id, dirty=False)


class _BatchPin:
    """``with`` item of :meth:`BufferPool.pages_many`: ``page_id -> page``."""

    __slots__ = ("_pool", "_pages")

    def __init__(self, pool: BufferPool, pages: dict[int, SlottedPage]) -> None:
        self._pool = pool
        self._pages = pages

    def __enter__(self) -> dict[int, SlottedPage]:
        return self._pages

    def __exit__(self, exc_type, exc, tb) -> None:
        for page_id in self._pages:
            self._pool.unpin(page_id)
