"""Cache-slot geometry inside a leaf page's free window (§2.1.1).

The free window ``[free_lo, free_hi)`` between the directory and the key
region is carved into *slots* whose start offsets are aligned to the item
size — the paper's example: "if the item size is 25 bytes, then the start
of each slot is a multiple of 25".  Alignment makes slot boundaries a pure
function of the item size, so a reader needs no per-page slot table: it
derives the same slots the writer used even after the window has shrunk.

Each slot holds one self-describing item::

    tuple_id (8 B) | payload (fixed) | checksum (2 B)

The checksum is the CRC-16 of the ``tuple_id | payload`` body, stored
big-endian; no valid item stores 0, so a zeroed slot is empty.  A slot
half-clobbered by index growth fails its checksum and *reads as* empty —
this is what lets key inserts "freely overwrite the periphery of the
cache space" without any coordination.  Bytes stamped by another checksum
read as empty too: a format change merely starts the cache cold.

**Stable point.**  The paper derives the location overwritten last as
``S = K/(K+D) × P`` for its Figure-1 layout (keys grow down from the
header, directory grows up from the footer).  Our pages mirror that layout
(directory low, keys high), so the same meeting point measured in our
coordinates is ``S = H + U·D/(K+D)`` where ``H`` is the header size and
``U`` the usable bytes — the point where the two growing regions collide.
Slots are ranked by distance from S into buckets; hits migrate items
bucket-by-bucket toward S so the hottest items die last.  Slot centres
are evenly spaced, so that ranking is arithmetic: the nearer of S's two
neighbours first, then strict alternation between the sides until one
runs out, then the rest of the other side (ties go to the lower index).
Nothing is sorted and nothing is kept per page.
"""

from __future__ import annotations

from binascii import crc_hqx
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.storage.constants import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE

#: Bytes of tuple id at the start of every cache item.
ITEM_HEADER_SIZE = 8

#: Trailing checksum bytes.
ITEM_CHECKSUM_SIZE = 2

#: What an item whose CRC computes to 0 stores instead (0 marks "empty").
ZERO_CHECKSUM = 0x55AA


def item_size_for_payload(payload_size: int) -> int:
    """Full slot width for a given cached-payload width."""
    if payload_size <= 0:
        raise ReproError("cache payload size must be positive")
    return ITEM_HEADER_SIZE + payload_size + ITEM_CHECKSUM_SIZE


def checksum(body: bytes) -> int:
    """CRC-16-CCITT (:func:`binascii.crc_hqx`, in C) of an item's body.

    Its job is detecting slots clobbered by index key/directory growth.
    Stored big-endian, the checksum continues the polynomial, so any burst
    of at most 16 bits — one byte, or two adjacent ones, anywhere in the
    slot — is detected; larger clobbers collide with probability ~2^-16.
    Zero is reserved for "empty": a computed 0 is stored as
    :data:`ZERO_CHECKSUM`, which only an item whose CRC is 0 or
    ``ZERO_CHECKSUM`` pays for — a clobber turning one into the other.
    """
    return crc_hqx(body, 0) or ZERO_CHECKSUM


@dataclass(frozen=True)
class CacheGeometry:
    """The slot layout of one page's free window at one item size.

    Every access asks for the geometry of the window as it is *now*, which
    moves as the page fills: slots that no longer fit simply vanish from the
    layout (and their bytes are fair game for the index).
    """

    page_size: int
    free_lo: int
    free_hi: int
    item_size: int
    entry_size: int  # leaf key+value record width (the paper's K)
    #: Index of the first aligned slot fully inside the window, and how
    #: many aligned slots currently fit in it.
    first_slot_index: int = field(init=False)
    num_slots: int = field(init=False)
    #: ``(left, left_first, paired)``: slot centres left of S, whether the
    #: nearest of them ranks first, and slots per side before one runs out.
    sides: tuple[int, bool, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        item = self.item_size
        first = -(-self.free_lo // item)  # ceil division
        fit = max(0, (self.free_hi - first * item) // item)
        object.__setattr__(self, "first_slot_index", first)
        object.__setattr__(self, "num_slots", fit)
        # Slot i lies left of S iff i*item < S - (centre of slot 0), a centre
        # on S counting as right; ``left_first`` compares ``abs(offset + half
        # - S)`` of S's neighbours as a stable sort would: a tie goes left.
        half, s, origin = item / 2, self.stable_point, first * item
        whole, rest = divmod(s - (origin + half), item)
        left = min(fit, max(0, int(whole) + (rest > 0)))
        right_offset = origin + left * item
        left_first = abs(right_offset - item + half - s) <= abs(right_offset + half - s)
        object.__setattr__(self, "sides", (left, left_first, min(left, fit - left)))

    # -- slots ------------------------------------------------------------

    def slot_offset(self, slot: int) -> int:
        """Absolute byte offset of logical slot ``slot`` (0-based)."""
        if not 0 <= slot < self.num_slots:
            raise ReproError(
                f"slot {slot} out of range 0..{self.num_slots - 1}"
                if self.num_slots else "window holds no slots"
            )
        return (self.first_slot_index + slot) * self.item_size

    # -- stable point -------------------------------------------------------

    @property
    def stable_point(self) -> float:
        """The byte offset overwritten last as the page fills.

        Mirror image of the paper's ``S = K/(K+D) × P``: with the directory
        (pointer size D) growing up from the header and key records
        (size K) growing down from the footer, the two regions meet at
        ``header + usable × D/(K+D)``.
        """
        usable = self.page_size - PAGE_HEADER_SIZE - PAGE_FOOTER_SIZE
        d = SLOT_ENTRY_SIZE
        k = self.entry_size
        return PAGE_HEADER_SIZE + usable * d / (k + d)

    def rank_of(self, slot: int) -> int:
        """Stability rank of in-range ``slot``: 0 is the slot closest to S."""
        left, left_first, paired = self.sides
        on_left = slot < left
        k = left - 1 - slot if on_left else slot - left  # k-th on its side
        if k >= paired:
            return paired + k  # the other side has run out
        return 2 * k + (on_left != left_first)

    def slots_at_ranks(self, lo: int, hi: int) -> list[int]:
        """Slots holding stability ranks ``[lo, hi)``, most stable first."""
        left, left_first, paired = self.sides
        right = self.num_slots - left
        slots = []
        for rank in range(lo, min(hi, self.num_slots)):
            if rank < 2 * paired:  # the sides alternate, nearer one first
                k = rank // 2
                on_left = (rank % 2 == 0) == left_first
            else:
                k = rank - paired
                on_left = left > right
            slots.append(left - 1 - k if on_left else left + k)
        return slots

    def slots_by_stability(self) -> list[int]:
        """Slot indices ordered most-stable (closest to S) first."""
        return self.slots_at_ranks(0, self.num_slots)

    def buckets(self, bucket_slots: int) -> list[list[int]]:
        """Group slots into buckets of ``bucket_slots``, stable bucket first.

        Bucket 0 is the interior (nearest S); the last bucket is the
        periphery that index growth will overwrite first and evictions
        target.
        """
        if bucket_slots <= 0:
            raise ReproError("bucket_slots must be positive")
        ranked = self.slots_by_stability()
        return [
            ranked[i : i + bucket_slots]
            for i in range(0, len(ranked), bucket_slots)
        ]
