"""On-page layout constants shared by pages, the B+Tree, and the cache.

The page anatomy follows Figure 1 of the paper::

    +--------------------------------------------------------------+
    | fixed header | directory ->   ...free space...   <- records | footer |
    +--------------------------------------------------------------+

The directory grows *up* from the header; the record/key region grows
*down* from the footer; whatever is left in the middle is the free space
the index cache recycles (§2.1).
"""

from __future__ import annotations

from enum import IntEnum

#: Default page size.  4 KiB matches the paper's implicit InnoDB-era sizing
#: and keeps cache-slot geometry interesting (dozens of slots per leaf).
DEFAULT_PAGE_SIZE = 4096

#: Fixed page header:
#:   magic(2) page_id(4) page_type(1) flags(1) slot_count(2)
#:   free_lo(2) free_hi(2) cache_csn(8) next_page(4) level(1)
#:   checksum(4) reserved(1)  = 32 bytes
PAGE_HEADER_SIZE = 32

#: Byte offset of the CRC32 page checksum within the header (carved out
#: of the formerly reserved tail).  Stamped by the buffer pool at
#: write-back over every page byte *except* this field, verified on the
#: next fetch miss; a zero page (never written back) is treated as
#: unstamped.
PAGE_CHECKSUM_OFFSET = 27

#: Width of the CRC32 checksum field.
PAGE_CHECKSUM_SIZE = 4

#: Sentinel for "no next page" in the next_page header field.
NO_PAGE = 0xFFFFFFFF

#: Fixed page footer: magic(2) + reserved(2).
PAGE_FOOTER_SIZE = 4

#: One directory entry: record offset(2) + record length(2).
SLOT_ENTRY_SIZE = 4

#: What a freshly formatted page spends before its first record's bytes.
EMPTY_PAGE_OVERHEAD = PAGE_HEADER_SIZE + PAGE_FOOTER_SIZE + SLOT_ENTRY_SIZE

#: Page magic for format validation.
PAGE_MAGIC = 0xB175  # "bits"

#: Footer magic.
FOOTER_MAGIC = 0x1EFD


class PageType(IntEnum):
    """Discriminates how a page's record region is interpreted."""

    FREE = 0
    HEAP = 1
    BTREE_LEAF = 2
    BTREE_INTERNAL = 3
    META = 4
