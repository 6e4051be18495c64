"""Storage substrate: simulated disk, slotted pages, buffer pool, heap files."""

from repro.storage.constants import (
    DEFAULT_PAGE_SIZE,
    NO_PAGE,
    PAGE_HEADER_SIZE,
    PAGE_FOOTER_SIZE,
    SLOT_ENTRY_SIZE,
    PageType,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage
from repro.storage.buffer_pool import BufferPool
from repro.storage.heap import HeapFile, Rid

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "NO_PAGE",
    "PAGE_HEADER_SIZE",
    "PAGE_FOOTER_SIZE",
    "SLOT_ENTRY_SIZE",
    "PageType",
    "SimulatedDisk",
    "SlottedPage",
    "BufferPool",
    "HeapFile",
    "Rid",
]
