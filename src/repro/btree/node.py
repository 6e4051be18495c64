"""Typed views over B+Tree node pages.

Nodes are ordinary :class:`SlottedPage`\\ s whose directory is kept sorted
by key, which is exactly the Figure-1 anatomy: directory entries grow up
from the header, key records grow down from the footer, and the free window
in the middle is where the index cache lives.

* **Leaf** records are ``key || value`` (both fixed width).
* **Internal** records are ``key || child_page_id(u32)``.  Entry 0's key is
  a sentinel treated as −∞, giving ``n`` entries for ``n`` children.
"""

from __future__ import annotations

import struct

from repro.errors import PageFormatError
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage

CHILD_PTR_SIZE = 4
_CHILD = struct.Struct("<I")


class LeafNode:
    """Sorted ``key -> value`` entries in a leaf page."""

    def __init__(self, page: SlottedPage, key_size: int, value_size: int) -> None:
        if page.type_code != PageType.BTREE_LEAF:
            raise PageFormatError(
                f"page {page.page_id} is {page.page_type.name}, not a leaf"
            )
        self.page = page
        self._key_size = key_size
        self._value_size = value_size

    @property
    def count(self) -> int:
        return self.page.slot_count

    def key_at(self, pos: int) -> bytes:
        return self.page.read(pos)[: self._key_size]

    def value_at(self, pos: int) -> bytes:
        return self.page.read(pos)[self._key_size :]

    def entry_at(self, pos: int) -> tuple[bytes, bytes]:
        record = self.page.read(pos)
        return record[: self._key_size], record[self._key_size :]

    def find(self, key: bytes) -> tuple[int, bool]:
        """Lower-bound binary search: ``(position, exact_match)``."""
        return self.page.bisect(key)

    def insert(self, pos: int, key: bytes, value: bytes) -> None:
        """Insert an entry at ``pos`` (raises ``PageFullError`` when full)."""
        self.page.insert_at(pos, key + value)

    def set_value(self, pos: int, value: bytes) -> None:
        """Overwrite the value of an existing entry."""
        key = self.key_at(pos)
        self.page.update(pos, key + value)

    def remove(self, pos: int) -> None:
        self.page.remove_at(pos)

    @property
    def entry_size(self) -> int:
        return self._key_size + self._value_size


class InternalNode:
    """Sorted ``separator -> child`` routing entries in an internal page."""

    def __init__(self, page: SlottedPage, key_size: int) -> None:
        if page.type_code != PageType.BTREE_INTERNAL:
            raise PageFormatError(
                f"page {page.page_id} is {page.page_type.name}, not internal"
            )
        self.page = page
        self._key_size = key_size

    @property
    def count(self) -> int:
        return self.page.slot_count

    def child_at(self, pos: int) -> int:
        return _CHILD.unpack_from(self.page.read(pos), self._key_size)[0]

    def entry_at(self, pos: int) -> tuple[bytes, int]:
        record = self.page.read(pos)
        return (
            record[: self._key_size],
            _CHILD.unpack_from(record, self._key_size)[0],
        )

    def find_child(self, key: bytes) -> tuple[int, int]:
        """``(position, child_page_id)`` routing ``key``.

        Picks the rightmost entry whose separator is <= ``key``; entry 0's
        separator is ignored (−∞), so position 0 is the floor.
        """
        pos = self.page.bisect(key, 1, upper=True)[0] - 1
        return pos, self.child_at(pos)

    def insert(self, pos: int, key: bytes, child: int) -> None:
        self.page.insert_at(pos, key + _CHILD.pack(child))

