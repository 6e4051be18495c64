"""Access-based clustering (§3.1): relocate hot tuples to the table's tail.

"Our clustering algorithm relocates hot tuples by deleting then appending
them to the end of the table."  Relocation concentrates hot tuples onto a
small set of tail pages, so a skewed read workload touches few heap pages
instead of one page per hot tuple.

The operator requires an *append-only* heap: a first-fit heap would reuse
the hole just opened by the delete and put the tuple right back where it
was, silently undoing the clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.core.hot_cold.forwarding import ForwardingTable
from repro.errors import ReproError
from repro.storage.heap import HeapFile, Rid
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class ClusterReport:
    """What a clustering pass did."""

    hot_tuples: int
    moved: int
    skipped_missing: int

def cluster_hot_tuples(
    heap: HeapFile,
    tree: BPlusTree,
    hot_keys: list[bytes],
    fraction: float = 1.0,
    rng: DeterministicRng | None = None,
    forwarding: ForwardingTable | None = None,
) -> ClusterReport:
    """Relocate ``fraction`` of ``hot_keys``'s tuples to the heap's tail.

    Args:
        heap: the table's heap; must be append-only (see module docstring).
        tree: the primary index mapping encoded keys to RID values; values
            are rewritten in place as tuples move.
        hot_keys: encoded index keys of the hot tuples.
        fraction: portion of the hot set to relocate — the knob behind the
            paper's 0% / 54% / 100% curves in Figure 3.
        rng: used to sample which hot tuples move when ``fraction < 1``.
        forwarding: optional forwarding table to record old→new RIDs for
            stale external references.

    Returns a :class:`ClusterReport`.
    """
    if not heap.append_only:
        raise ReproError(
            "clustering requires an append-only heap; a first-fit heap "
            "would reuse the freed slots and undo the relocation"
        )
    if not 0.0 <= fraction <= 1.0:
        raise ReproError("fraction must be in [0, 1]")
    if fraction < 1.0:
        if rng is None:
            raise ReproError("sampling a fraction of the hot set needs an rng")
        k = round(len(hot_keys) * fraction)
        chosen = rng.sample(hot_keys, k)
    else:
        chosen = list(hot_keys)

    moved = 0
    skipped = 0
    for key in chosen:
        rid_bytes = tree.search(key)
        if rid_bytes is None:
            skipped += 1
            continue
        old_rid = Rid.from_bytes(rid_bytes)
        record = heap.fetch(old_rid)
        heap.delete(old_rid)
        new_rid = heap.insert(record)
        tree.update_value(key, new_rid.to_bytes())
        if forwarding is not None:
            forwarding.record_move(old_rid, new_rid)
        moved += 1
    return ClusterReport(
        hot_tuples=len(hot_keys),
        moved=moved,
        skipped_missing=skipped,
    )
