"""Rebuild an index tree from its heap (the self-healing primitive).

A B+Tree over a heap is pure redundancy: every ``key -> RID`` entry can
be recomputed by scanning the heap and re-encoding the key columns.
That redundancy is what makes index-page corruption recoverable —
:class:`~repro.faults.recovery.RecoveryManager` calls this (via the
index wrappers' ``rebuild_from_heap``) after the buffer pool quarantines
a corrupt node.

Lives in ``repro.btree`` so both index flavours (``PlainIndex`` in
``repro.query.table`` and ``CachedBTree`` in ``repro.core.index_cache``)
can share it without importing each other.
"""

from __future__ import annotations

from repro.btree.keycodec import KeyCodec
from repro.btree.tree import BPlusTree
from repro.schema.record import unpack_record_map


def rebuild_tree_from_heap(
    tree: BPlusTree,
    heap,
    schema,
    key_codec: KeyCodec,
) -> BPlusTree:
    """Bulk-load a replacement for ``tree`` from a full scan of ``heap``.

    The new tree inherits the old one's geometry (key/value sizes, name,
    split fraction, metrics registry) and buffer pool; the old tree's
    pages are simply orphaned — the simulated disk only grows, like a
    real tablespace file, and any quarantined page stays quarantined.
    """
    entries: list[tuple[bytes, bytes]] = []
    for rid, record in heap.scan():
        row = unpack_record_map(schema, record)
        entries.append((key_codec.encode_row(row), rid.to_bytes()))
    entries.sort(key=lambda kv: kv[0])
    return BPlusTree.bulk_load(
        tree.pool,
        entries,
        tree.key_size,
        tree.value_size,
        name=tree.name,
        split_fraction=tree.split_fraction,
        registry=tree.registry,
    )
