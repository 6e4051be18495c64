"""Slotted page implementing the Figure-1 anatomy of the paper.

Byte layout of a page of size ``P``::

    offset 0                                                        P
    | header (24 B) | directory -> | ...free window... | <- records | footer (4 B) |

* The **directory** grows upward from the header; entry ``i`` is 4 bytes:
  record offset (u16) + record length (u16).  Offset 0 marks a tombstone.
* The **record region** grows downward from the footer.
* The **free window** ``[free_lo, free_hi)`` in the middle belongs to nobody
  — which is exactly why the paper's index cache can squat there (§2.1).
  Inserts consume the window from *both* ends without preserving its
  contents; cache slots near the periphery are silently clobbered, and the
  cache layer re-validates slots via checksums on every read.

Header fields (little-endian)::

    magic      u16   format check
    page_id    u32
    page_type  u8    PageType
    flags      u8
    slot_count u16   number of directory entries (incl. tombstones)
    free_lo    u16   first byte past the directory
    free_hi    u16   first byte of the lowest record
    cache_csn  u64   per-page cache sequence number (§2.1.2)
    next_page  u32
    level      u8
    checksum   u32   CRC32 over the page with this field zeroed
    reserved   u8

The checksum is storage-integrity state, not page-content state: it is
stamped by the buffer pool immediately before a write-back and verified
when the page next comes off disk, so torn writes and at-rest bit flips
surface as :class:`~repro.errors.CorruptPageError` instead of silently
wrong query results.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.errors import InvalidRidError, PageFormatError, PageFullError
from repro.storage.constants import (
    FOOTER_MAGIC,
    NO_PAGE,
    PAGE_CHECKSUM_OFFSET,
    PAGE_CHECKSUM_SIZE,
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_MAGIC,
    SLOT_ENTRY_SIZE,
    PageType,
)

_OFF_MAGIC = 0
_OFF_PAGE_ID = 2
_OFF_TYPE = 6
_OFF_FLAGS = 7
_OFF_SLOT_COUNT = 8
_OFF_FREE_LO = 10
_OFF_FREE_HI = 12
_OFF_CACHE_CSN = 14
_OFF_NEXT_PAGE = 22
_OFF_LEVEL = 26
_OFF_CHECKSUM = PAGE_CHECKSUM_OFFSET
_TOMBSTONE_OFFSET = 0

# Compiled codecs, applied straight to the frame's ``bytearray`` with
# ``unpack_from`` / ``pack_into`` at every access (DESIGN.md §5), except the
# page-type byte and a searched node's key prefixes, kept on the view
# (``bisect``) and maintained by the ordered-directory writes; every other
# write drops the prefixes.
# No long-lived ``memoryview``: a live export makes the write bracket's
# ``restore`` raise ``BufferError``.
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_HEADER = struct.Struct("<HIBBHHHQIB")  # magic .. level, in header order
_GEOMETRY = struct.Struct("<HHH")  # slot_count, free_lo, free_hi
_PAIR = struct.Struct("<HH")  # (free_lo, free_hi) or one directory entry

#: Byte searches a view serves before its key prefixes are decoded: the
#: ski-rental break-even of one decode (10–21 µs on ``point_fit``'s nodes)
#: against one byte search (2.3–2.9 µs).  DESIGN.md §5, "Decoded once".
DECODE_AFTER = 8


def compute_page_checksum(buffer: bytes | bytearray) -> int:
    """CRC32 over the page bytes with the checksum field treated as zero."""
    with memoryview(buffer) as view:  # no copies; released on return
        crc = zlib.crc32(view[:_OFF_CHECKSUM])
        crc = zlib.crc32(bytes(PAGE_CHECKSUM_SIZE), crc)
        return zlib.crc32(view[_OFF_CHECKSUM + PAGE_CHECKSUM_SIZE :], crc)


def read_page_checksum(buffer: bytes | bytearray) -> int:
    """The stored CRC32 stamp (0 on a never-stamped page)."""
    return _U32.unpack_from(buffer, _OFF_CHECKSUM)[0]


def stamp_page_checksum(buffer: bytearray) -> int:
    """Stamp the current CRC32 into the checksum field; returns the CRC."""
    crc = compute_page_checksum(buffer)
    _U32.pack_into(buffer, _OFF_CHECKSUM, crc)
    return crc


def page_checksum_ok(buffer: bytes | bytearray) -> bool:
    """True if the stamp matches the contents, or the page was never
    stamped (all-zero bytes, as fresh allocations are)."""
    stored = read_page_checksum(buffer)
    if compute_page_checksum(buffer) == stored:
        return True
    return stored == 0 and not any(buffer)


class SlottedPage:
    """A mutable view over one page's ``bytearray``.

    The page does not own its buffer: the buffer pool does, and keeps one
    view per frame.  All state lives in the bytes except the page-type
    byte and :meth:`bisect`'s key prefixes, which the view keeps beside
    them and its own writes keep equal to them.
    """

    __slots__ = ("buffer", "size", "type_code", "keys", "key_width", "searches")

    def __init__(self, buffer: bytearray) -> None:
        size = len(buffer)
        if size < PAGE_HEADER_SIZE + PAGE_FOOTER_SIZE:
            raise PageFormatError("buffer smaller than header + footer")
        if size > 0xFFFF:
            raise PageFormatError("2-byte offsets cap pages at 65535 bytes")
        #: The raw page bytes (the index cache writes here directly).
        self.buffer = buffer
        self.size = size
        #: The raw page-type byte: equals a :class:`PageType` member as an
        #: int, without constructing the enum (node views check every visit).
        self.type_code = buffer[_OFF_TYPE]
        #: A B+Tree node's key prefixes, ``key_width`` bytes each, decoded
        #: once the view served ``DECODE_AFTER`` byte ``searches``.
        self.keys: list[bytes] | None = None
        self.key_width = 0
        self.searches = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def format(
        cls, buffer: bytearray, page_id: int, page_type: PageType
    ) -> "SlottedPage":
        """Initialise a fresh page in ``buffer`` and return a view over it."""
        page = cls(buffer)
        page.reformat(page_id, page_type)
        return page

    def reformat(self, page_id: int, page_type: PageType) -> None:
        """Initialise this view's bytes as a fresh, empty page."""
        buffer, size = self.buffer, self.size
        buffer[:] = bytes(size)
        self.keys = None
        _HEADER.pack_into(
            buffer, _OFF_MAGIC, PAGE_MAGIC, page_id, page_type, 0, 0,
            PAGE_HEADER_SIZE, size - PAGE_FOOTER_SIZE, 0, NO_PAGE, 0,
        )
        self.type_code = buffer[_OFF_TYPE]
        _U16.pack_into(buffer, size - PAGE_FOOTER_SIZE, FOOTER_MAGIC)

    def restore(self, snapshot: bytes) -> None:
        """Put back every byte of an earlier ``bytes(self.buffer)``."""
        self.buffer[:] = snapshot
        self.keys = None
        self.type_code = self.buffer[_OFF_TYPE]

    def verify(self) -> None:
        """Raise :class:`PageFormatError` if the page bytes look corrupt."""
        if not self.is_formatted:
            raise PageFormatError("bad page magic")
        footer = self.size - PAGE_FOOTER_SIZE
        if _U16.unpack_from(self.buffer, footer)[0] != FOOTER_MAGIC:
            raise PageFormatError("bad footer magic")
        lo, hi = self.free_window()
        if not PAGE_HEADER_SIZE <= lo <= hi <= footer:
            raise PageFormatError(f"inconsistent free window [{lo}, {hi})")

    # -- header properties ---------------------------------------------------

    @property
    def page_id(self) -> int:
        return _U32.unpack_from(self.buffer, _OFF_PAGE_ID)[0]

    @property
    def page_type(self) -> PageType:
        return PageType(self.type_code)

    @property
    def slot_count(self) -> int:
        """Directory entries, including tombstones."""
        return _U16.unpack_from(self.buffer, _OFF_SLOT_COUNT)[0]

    @property
    def cache_csn(self) -> int:
        """Per-page cache sequence number (§2.1.2 ``CSN_p``)."""
        return _U64.unpack_from(self.buffer, _OFF_CACHE_CSN)[0]

    @cache_csn.setter
    def cache_csn(self, value: int) -> None:
        _U64.pack_into(self.buffer, _OFF_CACHE_CSN, value)

    @property
    def next_page(self) -> int | None:
        """Sibling link (B+Tree leaf chaining); ``None`` when unset."""
        raw = _U32.unpack_from(self.buffer, _OFF_NEXT_PAGE)[0]
        return None if raw == NO_PAGE else raw

    @next_page.setter
    def next_page(self, value: int | None) -> None:
        _U32.pack_into(self.buffer, _OFF_NEXT_PAGE, NO_PAGE if value is None else value)

    @property
    def level(self) -> int:
        """Tree level: 0 for leaves, increasing toward the root."""
        return self.buffer[_OFF_LEVEL]

    @level.setter
    def level(self, value: int) -> None:
        self.buffer[_OFF_LEVEL] = value

    def free_window(self) -> tuple[int, int]:
        """``(free_lo, free_hi)`` — the unclaimed middle of the page."""
        return _PAIR.unpack_from(self.buffer, _OFF_FREE_LO)

    @property
    def free_bytes(self) -> int:
        lo, hi = self.free_window()
        return hi - lo

    # -- directory -----------------------------------------------------------

    def _slot_entry_offset(self, slot: int) -> int:
        return PAGE_HEADER_SIZE + slot * SLOT_ENTRY_SIZE

    def _slot_entry(self, slot: int) -> tuple[int, int]:
        buf = self.buffer
        if not 0 <= slot < _U16.unpack_from(buf, _OFF_SLOT_COUNT)[0]:
            raise InvalidRidError(
                f"slot {slot} out of range on page {self.page_id}"
            )
        try:
            return _PAIR.unpack_from(buf, PAGE_HEADER_SIZE + slot * SLOT_ENTRY_SIZE)
        except struct.error:
            # A corrupt slot_count reaching past the page: such an entry
            # has always read as a tombstone, never as a codec error.
            return _TOMBSTONE_OFFSET, 0

    def _set_slot_entry(self, slot: int, offset: int, length: int) -> None:
        _PAIR.pack_into(self.buffer, self._slot_entry_offset(slot), offset, length)

    def _directory(self, count: int) -> Iterator[tuple[int, int]]:
        """``(offset, length)`` of slots ``0..count-1`` decoded in one pass
        over a snapshot of the directory — only for walks that finish
        inside one call (:meth:`live_slots` yields, so it reads live)."""
        return _PAIR.iter_unpack(
            self.buffer[PAGE_HEADER_SIZE : self._slot_entry_offset(count)]
        )

    def slot_is_live(self, slot: int) -> bool:
        """True if the slot holds a record (not a tombstone)."""
        offset, _ = self._slot_entry(slot)
        return offset != _TOMBSTONE_OFFSET

    # -- record operations -----------------------------------------------------

    def insert(self, data: bytes) -> int:
        """Insert a record, return its slot number.

        Prefers reusing a tombstone directory entry (no directory growth);
        otherwise appends a new entry.  Record bytes are always taken from
        the high end of the free window — possibly clobbering cache slots —
        per the paper's "inserts freely overwrite the periphery" rule.
        """
        if not data:
            raise PageFullError("cannot insert an empty record")
        count, lo, hi = _GEOMETRY.unpack_from(self.buffer, _OFF_SLOT_COUNT)
        slot = self._find_tombstone(count)
        need = len(data) if slot is not None else len(data) + SLOT_ENTRY_SIZE
        if hi - lo < need:
            raise PageFullError(
                f"page {self.page_id}: need {need} bytes, have {hi - lo}"
            )
        new_hi = hi - len(data)
        self.buffer[new_hi:hi] = data
        if slot is None:
            slot = count
            count += 1
            lo += SLOT_ENTRY_SIZE
        _GEOMETRY.pack_into(self.buffer, _OFF_SLOT_COUNT, count, lo, new_hi)
        self._set_slot_entry(slot, new_hi, len(data))
        self.keys = None
        return slot

    def read(self, slot: int) -> bytes:
        """Read the record in ``slot``."""
        offset, length = self._slot_entry(slot)
        if offset == _TOMBSTONE_OFFSET:
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} is deleted"
            )
        return bytes(self.buffer[offset : offset + length])

    def update(self, slot: int, data: bytes) -> None:
        """Overwrite a record in place; the length must not change."""
        offset, length = self._slot_entry(slot)
        if offset == _TOMBSTONE_OFFSET:
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} is deleted"
            )
        if len(data) != length:
            raise PageFullError(
                f"in-place update must keep length {length}, got {len(data)}"
            )
        self.buffer[offset : offset + len(data)] = data
        if self.keys is not None:
            self.keys[slot] = data[: self.key_width]

    def delete(self, slot: int) -> None:
        """Tombstone a slot.  Record bytes stay until :meth:`compact`."""
        offset, length = self._slot_entry(slot)
        if offset == _TOMBSTONE_OFFSET:
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} already deleted"
            )
        self._set_slot_entry(slot, _TOMBSTONE_OFFSET, length)
        self.keys = None

    @property
    def is_formatted(self) -> bool:
        """True if the buffer carries this module's magic (i.e. has been
        through :meth:`format`); fresh zeroed pages are not."""
        return _U16.unpack_from(self.buffer, _OFF_MAGIC)[0] == PAGE_MAGIC

    def place_at(self, slot: int, data: bytes) -> None:
        """Materialize ``data`` at exactly ``slot`` (heap-mode redo only).

        Unlike :meth:`insert`, which picks its own slot (reusing the
        lowest tombstone), WAL redo must reproduce the slot the original
        run chose — including slots past the current directory end when
        earlier inserts on this page were never redone (their effects
        were already durable).  Intervening missing slots are created as
        tombstones; the directory never shifts, so existing RIDs stay
        valid.  Compacts once if the free window is tight (compaction is
        not logged, so redo may need more contiguous room than the
        original run did).
        """
        if not data:
            raise PageFullError("cannot place an empty record")
        count, lo, hi = _GEOMETRY.unpack_from(self.buffer, _OFF_SLOT_COUNT)
        if slot < count and self.slot_is_live(slot):
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} is live; redo must "
                f"delete before re-placing"
            )
        grow = max(0, slot + 1 - count)
        need = len(data) + grow * SLOT_ENTRY_SIZE
        if hi - lo < need:
            self.compact()
            lo, hi = self.free_window()
            if hi - lo < need:
                raise PageFullError(
                    f"page {self.page_id}: redo needs {need} bytes, "
                    f"have {hi - lo} after compaction"
                )
        self._grow_directory(count, grow, lo)
        new_hi = hi - len(data)
        self.buffer[new_hi:hi] = data
        _U16.pack_into(self.buffer, _OFF_FREE_HI, new_hi)
        self._set_slot_entry(slot, new_hi, len(data))

    def reserve_tombstones(self, new_count: int) -> None:
        """Extend the directory to ``new_count`` entries, all tombstones.

        Page-rebuild companion to :meth:`place_at`: a page whose
        highest-numbered slots were all deleted still needs those
        directory entries so future inserts reuse them exactly as the
        pre-crash page would have.
        """
        count, lo, hi = _GEOMETRY.unpack_from(self.buffer, _OFF_SLOT_COUNT)
        if new_count <= count:
            return
        grow = new_count - count
        if hi - lo < grow * SLOT_ENTRY_SIZE:
            raise PageFullError(
                f"page {self.page_id}: no room for {grow} directory entries"
            )
        self._grow_directory(count, grow, lo)

    def _grow_directory(self, count: int, grow: int, lo: int) -> None:
        """Append ``grow`` zeroed (tombstone, length 0) directory entries."""
        self.keys = None  # place_at and reserve_tombstones
        span = grow * SLOT_ENTRY_SIZE
        start = self._slot_entry_offset(count)
        self.buffer[start : start + span] = bytes(span)
        _PAIR.pack_into(self.buffer, _OFF_SLOT_COUNT, count + grow, lo + span)

    # -- ordered-directory operations (B+Tree nodes) -------------------------
    #
    # B+Tree nodes keep their directory sorted by key, so they never use
    # tombstones: removal shifts the directory closed and insertion shifts
    # it open.  Record bytes of removed entries are orphaned in the record
    # region until :meth:`compact` — exactly the fill-factor decay the paper
    # cites for B+Trees under deletes.

    def bisect(
        self, key: bytes, lo: int = 0, upper: bool = False
    ) -> tuple[int, bool]:
        """Binary search of a directory sorted by each record's leading
        ``len(key)`` bytes: ``(position, exact)``.

        ``position`` is the first entry in ``[lo, slot_count)`` whose key
        is ``>= key`` (``> key`` with ``upper``), and ``exact`` says the
        entry there equals ``key`` (never true with ``upper``).  The one
        search both node views use: one ``unpack_from`` and one slice compare
        per step until the view served ``DECODE_AFTER``, then one C ``bisect``
        over its key prefixes: the same probes, so the same answers and errors.
        """
        width = len(key)
        keys = self.keys
        if keys is None and self.searches >= DECODE_AFTER:
            keys = self._decode_keys(width)
        if keys is not None and self.key_width == width:
            if upper:
                return bisect_right(keys, key, lo), False
            pos = bisect_left(keys, key, lo)
            return pos, pos < len(keys) and keys[pos] == key
        self.searches += 1
        buf = self.buffer
        hi = _U16.unpack_from(buf, _OFF_SLOT_COUNT)[0]
        at_hi = None
        try:
            while lo < hi:
                mid = (lo + hi) >> 1
                offset = _U16.unpack_from(
                    buf, PAGE_HEADER_SIZE + mid * SLOT_ENTRY_SIZE
                )[0]
                if offset == _TOMBSTONE_OFFSET:
                    break  # unusable entry: the error below
                probe = buf[offset : offset + width]
                if probe < key or (upper and probe == key):
                    lo = mid + 1
                else:
                    hi, at_hi = mid, probe
            else:
                return lo, at_hi == key
        except struct.error:  # entry past the page: reads as a tombstone
            pass
        raise InvalidRidError(f"slot {mid} on page {self.page_id} is deleted")

    def _decode_keys(self, width: int) -> list[bytes] | None:
        """Each entry's leading ``width`` bytes onto the view; refused, for
        ``DECODE_AFTER`` more byte searches, if one is a tombstone, lies
        past the page or is shorter than ``width``."""
        buf = bytes(self.buffer)
        count = _U16.unpack_from(buf, _OFF_SLOT_COUNT)[0]
        if self._slot_entry_offset(count) <= self.size:
            entries = struct.unpack_from(f"<{2 * count}H", buf, PAGE_HEADER_SIZE)
            offsets, lengths = entries[::2], entries[1::2]
            if _TOMBSTONE_OFFSET not in offsets and min(lengths, default=width) >= width:
                self.keys = [buf[offset : offset + width] for offset in offsets]
                self.key_width = width
                return self.keys
        self.searches = 0
        return None

    def insert_at(self, position: int, data: bytes) -> None:
        """Insert a record so its directory entry lands at ``position``.

        All entries at ``position`` and beyond shift one step up.  Raises
        :class:`PageFullError` if the record plus a directory entry do not
        fit in the free window.
        """
        count, lo, hi = _GEOMETRY.unpack_from(self.buffer, _OFF_SLOT_COUNT)
        if not 0 <= position <= count:
            raise InvalidRidError(
                f"position {position} out of range 0..{count}"
            )
        if not data:
            raise PageFullError("cannot insert an empty record")
        need = len(data) + SLOT_ENTRY_SIZE
        if hi - lo < need:
            raise PageFullError(
                f"page {self.page_id}: need {need} bytes, have {hi - lo}"
            )
        new_hi = hi - len(data)
        self.buffer[new_hi:hi] = data
        start = self._slot_entry_offset(position)
        end = self._slot_entry_offset(count)
        self.buffer[start + SLOT_ENTRY_SIZE : end + SLOT_ENTRY_SIZE] = self.buffer[start:end]
        _GEOMETRY.pack_into(
            self.buffer, _OFF_SLOT_COUNT, count + 1, lo + SLOT_ENTRY_SIZE, new_hi
        )
        _PAIR.pack_into(self.buffer, start, new_hi, len(data))
        if self.keys is not None:
            if len(data) < self.key_width:
                self.keys = None
            else:
                self.keys.insert(position, data[: self.key_width])

    def remove_at(self, position: int) -> None:
        """Remove the directory entry at ``position``, shifting the rest down.

        The record's bytes are orphaned in the record region (reclaimed by
        :meth:`compact`), so the free window does not grow at the high end.
        """
        count, lo = _PAIR.unpack_from(self.buffer, _OFF_SLOT_COUNT)
        if not 0 <= position < count:
            raise InvalidRidError(
                f"position {position} out of range 0..{count - 1}"
            )
        start = self._slot_entry_offset(position + 1)
        end = self._slot_entry_offset(count)
        self.buffer[start - SLOT_ENTRY_SIZE : end - SLOT_ENTRY_SIZE] = self.buffer[start:end]
        _PAIR.pack_into(self.buffer, _OFF_SLOT_COUNT, count - 1, lo - SLOT_ENTRY_SIZE)
        if self.keys is not None:
            del self.keys[position]

    def truncate(self, new_count: int) -> None:
        """Drop every directory entry at position >= ``new_count``.

        Used when splitting B+Tree nodes: the upper half is copied to the
        new sibling and truncated here.  Orphaned record bytes are then
        reclaimed with :meth:`compact`.
        """
        count, lo = _PAIR.unpack_from(self.buffer, _OFF_SLOT_COUNT)
        if not 0 <= new_count <= count:
            raise InvalidRidError(
                f"truncate target {new_count} out of range 0..{count}"
            )
        removed = count - new_count
        _PAIR.pack_into(
            self.buffer, _OFF_SLOT_COUNT, new_count, lo - removed * SLOT_ENTRY_SIZE
        )
        if self.keys is not None:
            del self.keys[new_count:]

    def _find_tombstone(self, count: int) -> int | None:
        for slot, (offset, _) in enumerate(self._directory(count)):
            if offset == _TOMBSTONE_OFFSET:
                return slot
        return None

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record_bytes)`` per live record (DESIGN.md §5, *Walks*)."""
        buf = self.buffer
        for slot in range(self.slot_count):
            try:
                offset, length = _PAIR.unpack_from(
                    buf, PAGE_HEADER_SIZE + slot * SLOT_ENTRY_SIZE)
            except struct.error:  # entry past the page: reads as a tombstone
                return
            if offset != _TOMBSTONE_OFFSET:
                yield slot, bytes(buf[offset : offset + length])

    def live_slots(self) -> Iterator[int]:
        """Yield the slot of every live record, read as :meth:`records` reads."""
        return (slot for slot, _ in self.records())

    # -- maintenance -------------------------------------------------------

    def compact(self) -> None:
        """Rewrite the record region to reclaim tombstoned record bytes.

        Slot numbers are preserved; record offsets change.  The free window
        is zeroed afterwards — moving bytes under the cache's feet is
        exactly the situation its checksums guard against, and zeroing makes
        every stale slot read as empty.
        """
        buf = self.buffer
        count, lo = _PAIR.unpack_from(buf, _OFF_SLOT_COUNT)
        live = [
            (slot, bytes(buf[offset : offset + length]))
            for slot, (offset, length) in enumerate(self._directory(count))
            if offset != _TOMBSTONE_OFFSET
        ]
        hi = self.size - PAGE_FOOTER_SIZE
        for slot, data in live:
            hi -= len(data)
            buf[hi : hi + len(data)] = data
            self._set_slot_entry(slot, hi, len(data))
        _U16.pack_into(buf, _OFF_FREE_HI, hi)
        buf[lo:hi] = bytes(hi - lo)

    # -- statistics --------------------------------------------------------

    def _live_lengths(self) -> list[int]:
        """Record length of every live slot, in one directory pass."""
        return [
            length for offset, length in self._directory(self.slot_count)
            if offset != _TOMBSTONE_OFFSET
        ]

    @property
    def live_record_bytes(self) -> int:
        """Bytes of live record payload."""
        return sum(self._live_lengths())

    @property
    def usable_bytes(self) -> int:
        """Bytes available to records + directory (page minus fixed areas)."""
        return self.size - PAGE_HEADER_SIZE - PAGE_FOOTER_SIZE

    @property
    def fill_factor(self) -> float:
        """Fraction of usable bytes holding live data (records + their
        directory entries) — the statistic the paper quotes as ~68% for
        healthy B+Trees and 45% for the churned CarTel database."""
        live = self._live_lengths()
        used = sum(live) + len(live) * SLOT_ENTRY_SIZE
        return used / self.usable_bytes if self.usable_bytes else 0.0
