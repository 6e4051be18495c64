"""Simulated disk: a flat array of fixed-size pages with I/O accounting.

The paper's performance experiments (Fig. 2b, Fig. 3) hinge on how many
page reads miss the buffer pool and go "to disk".  We model the disk as an
in-memory page array with read/write counters; simulated latency is charged
by the :class:`repro.sim.cost_model.CostModel` at the buffer-pool boundary,
keeping this class a dumb, exact store.
"""

from __future__ import annotations

from repro.errors import DiskError


class SimulatedDisk:
    """Fixed-page-size block store with exact I/O counters."""

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise DiskError("page_size must be positive")
        self.page_size = page_size
        self._pages: list[bytes] = []
        #: Count of page reads since construction (or last reset).
        self.reads = 0
        #: Count of page writes since construction (or last reset).
        self.writes = 0

    @property
    def num_pages(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        """Total allocated bytes (pages × page size)."""
        return len(self._pages) * self.page_size

    def allocate_page(self) -> int:
        """Allocate a zeroed page and return its page id."""
        self._pages.append(bytes(self.page_size))
        return len(self._pages) - 1

    def read_page(self, page_id: int) -> bytes:
        """Read a full page; counts as one disk read."""
        self._check(page_id)
        self.reads += 1
        return self._pages[page_id]

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write a full page; counts as one disk write."""
        self._check(page_id)
        if len(data) != self.page_size:
            raise DiskError(
                f"page write must be exactly {self.page_size} bytes, "
                f"got {len(data)}"
            )
        self.writes += 1
        self._pages[page_id] = bytes(data)

    def peek(self, page_id: int) -> bytes:
        """Read page bytes *without* counting I/O (test/debug helper)."""
        self._check(page_id)
        return self._pages[page_id]

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise DiskError(f"page id {page_id} out of range [0, {len(self._pages)})")
