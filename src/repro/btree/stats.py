"""Occupancy and size statistics for B+Trees.

These are the numbers the paper argues about: average fill factor (~68%
from Yao, 45% in CarTel), bytes of pure free space per index, and how many
cache slots that free space could hold (§2.1.4's capacity analysis).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.util.stats import StreamingStats


@dataclass(frozen=True)
class BTreeStats:
    """A snapshot of one tree's space accounting."""

    name: str
    num_entries: int
    height: int
    leaf_pages: int
    size_bytes: int
    leaf_fill_mean: float
    free_bytes_total: int

    def cache_capacity(self, item_size: int) -> int:
        """How many cache items of ``item_size`` bytes the free space holds.

        This is the §2.1.4 arithmetic: 360 MB of key data at 68% fill with
        25-byte items yields ~7.9 M cache slots.
        """
        if item_size <= 0:
            return 0
        return self.free_bytes_total // item_size


def collect_stats(tree: BPlusTree) -> BTreeStats:
    """Walk the tree's leaves and produce a :class:`BTreeStats` snapshot."""
    fills = StreamingStats()
    free_total = 0
    for page_id in tree.leaf_page_ids:
        with tree.pool.page(page_id) as page:
            fills.add(page.fill_factor)
            free_total += page.free_bytes
    return BTreeStats(
        name=tree.name,
        num_entries=tree.num_entries,
        height=tree.height,
        leaf_pages=len(tree.leaf_page_ids),
        size_bytes=tree.size_bytes,
        leaf_fill_mean=fills.mean,
        free_bytes_total=free_total,
    )
