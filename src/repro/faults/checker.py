"""``check_database``: the invariant walker.

After a run under fault injection (or any time a test wants belt *and*
braces), this walks every structure a :class:`~repro.query.database.Database`
owns and cross-checks the layers against each other:

* slotted-page layout (magic, footer, free-window sanity) on every page;
* free-space accounting: the directory ends exactly at ``free_lo`` and
  every live record lies inside ``[free_hi, size - footer)``;
* B+Tree shape: node page types and levels, positive fanout, strictly
  increasing keys across the leaf chain, leaf chain ↔ ``leaf_page_ids``
  agreement, entry count ↔ ``num_entries`` agreement;
* catalog ↔ heap agreement: every index holds exactly one entry per live
  heap record, every RID resolves, and the indexed key re-encoded from
  the heap tuple matches the key stored in the tree.

Everything is duck-typed against the ``Database`` surface (catalog,
tables, heaps, trees) so this module imports nothing from ``repro.query``
and stays cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.schema.record import unpack_record_map
from repro.storage.constants import (
    PAGE_HEADER_SIZE,
    PAGE_FOOTER_SIZE,
    SLOT_ENTRY_SIZE,
    PageType,
)
from repro.storage.heap import Rid


@dataclass
class CheckReport:
    """Outcome of one :func:`check_database` walk."""

    problems: list[str] = field(default_factory=list)
    tables_checked: int = 0
    indexes_checked: int = 0
    pages_checked: int = 0
    records_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def note(self, problem: str) -> None:
        self.problems.append(problem)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        return (
            f"check_database: {status} — {self.tables_checked} table(s), "
            f"{self.indexes_checked} index(es), {self.pages_checked} page(s), "
            f"{self.records_checked} record(s)"
        )


def check_database(db) -> CheckReport:
    """Walk every invariant of ``db`` and return a :class:`CheckReport`.

    Never raises for *findings* — each violation becomes one entry in
    ``report.problems`` — but quarantined/corrupt pages that cannot even
    be fetched are reported as problems too rather than propagating.
    """
    report = CheckReport()
    for table in db.catalog.tables():
        report.tables_checked += 1
        heap = table.heap
        _check_heap(report, table.name, heap)
        rows_by_rid = _collect_rows(report, table.name, table.schema, heap)
        for name in table.index_names:
            report.indexes_checked += 1
            _check_index(report, name, table.index(name), rows_by_rid)
    return report


# -- heap layer ---------------------------------------------------------------


def _check_heap(report: CheckReport, table_name: str, heap) -> None:
    pool = heap.pool
    for page_id in heap.page_ids:
        report.pages_checked += 1
        label = f"table {table_name!r} heap page {page_id}"
        try:
            with pool.page(page_id) as page:
                _check_page_layout(report, label, page, PageType.HEAP)
        except ReproError as exc:
            report.note(f"{label}: unreadable ({exc})")


def _check_page_layout(report: CheckReport, label: str, page, expected_type) -> None:
    try:
        page.verify()
    except ReproError as exc:
        report.note(f"{label}: layout corrupt ({exc})")
        return
    try:
        actual = page.page_type
    except ValueError:
        report.note(f"{label}: invalid page-type byte")
        return
    if expected_type is not None and actual is not expected_type:
        report.note(f"{label}: page type {actual.name}, expected {expected_type.name}")
        return
    lo, hi = page.free_window()
    directory_end = PAGE_HEADER_SIZE + page.slot_count * SLOT_ENTRY_SIZE
    if lo != directory_end:
        report.note(
            f"{label}: free_lo {lo} != directory end {directory_end} "
            f"({page.slot_count} slot(s))"
        )
    record_region_end = page.size - PAGE_FOOTER_SIZE
    for slot in page.live_slots():
        offset, length = page._slot_entry(slot)
        if not (hi <= offset and offset + length <= record_region_end):
            report.note(
                f"{label}: slot {slot} record [{offset}, {offset + length}) "
                f"outside record region [{hi}, {record_region_end})"
            )


def _collect_rows(report: CheckReport, table_name: str, schema, heap) -> dict | None:
    """Heap scan → ``{rid: row}``; ``None`` if the heap itself is unreadable."""
    rows: dict[Rid, dict] = {}
    try:
        for rid, record in heap.scan():
            report.records_checked += 1
            try:
                rows[rid] = unpack_record_map(schema, record)
            except ReproError as exc:
                report.note(f"table {table_name!r} record {rid!r}: undecodable ({exc})")
    except ReproError as exc:
        report.note(f"table {table_name!r}: heap scan failed ({exc})")
        return None
    if len(rows) != heap.num_records:
        report.note(
            f"table {table_name!r}: heap counts {heap.num_records} record(s) "
            f"but scan found {len(rows)}"
        )
    return rows


# -- index layer --------------------------------------------------------------


def _check_index(report: CheckReport, name: str, index, rows_by_rid: dict | None) -> None:
    tree = index.tree
    pool = tree.pool
    label = f"index {name!r}"

    for page_id in tree.leaf_page_ids:
        report.pages_checked += 1
        _check_node_page(report, label, pool, page_id, PageType.BTREE_LEAF)
    for page_id in tree.internal_page_ids:
        report.pages_checked += 1
        _check_node_page(report, label, pool, page_id, PageType.BTREE_INTERNAL)

    entries = _read_entries(report, label, tree)
    if entries is None:
        return
    for i in range(1, len(entries)):
        if entries[i - 1][0] >= entries[i][0]:
            report.note(
                f"{label}: key order violation at position {i} "
                f"({entries[i - 1][0].hex()} >= {entries[i][0].hex()})"
            )
    if len(entries) != tree.num_entries:
        report.note(
            f"{label}: tree counts {tree.num_entries} entr(ies) but the "
            f"leaf chain holds {len(entries)}"
        )
    _check_leaf_chain(report, label, tree)
    if rows_by_rid is not None:
        _check_against_heap(report, label, index, entries, rows_by_rid)


def _check_node_page(report: CheckReport, label: str, pool, page_id, expected) -> None:
    try:
        with pool.page(page_id) as page:
            _check_page_layout(report, f"{label} page {page_id}", page, expected)
            if expected is PageType.BTREE_LEAF and page.level != 0:
                report.note(f"{label} page {page_id}: leaf at level {page.level}")
            if expected is PageType.BTREE_INTERNAL:
                if page.level < 1:
                    report.note(f"{label} page {page_id}: internal node at level 0")
                if page.slot_count < 1:
                    report.note(f"{label} page {page_id}: internal node with no children")
    except ReproError as exc:
        report.note(f"{label} page {page_id}: unreadable ({exc})")


def _read_entries(report: CheckReport, label: str, tree):
    try:
        return list(tree.items())
    except ReproError as exc:
        report.note(f"{label}: leaf scan failed ({exc})")
        return None


def _check_leaf_chain(report: CheckReport, label: str, tree) -> None:
    expected = set(tree.leaf_page_ids)
    chained: list[int] = []
    try:
        page_id = tree._leftmost_leaf()
        while page_id is not None:
            chained.append(page_id)
            if len(chained) > len(expected) + 1:
                report.note(f"{label}: leaf chain longer than the leaf set (cycle?)")
                return
            with tree.pool.page(page_id) as page:
                page_id = page.next_page
    except ReproError as exc:
        report.note(f"{label}: leaf chain walk failed ({exc})")
        return
    if set(chained) != expected:
        missing = sorted(expected - set(chained))
        extra = sorted(set(chained) - expected)
        report.note(
            f"{label}: leaf chain disagrees with leaf_page_ids "
            f"(missing {missing}, extra {extra})"
        )


def _check_against_heap(
    report: CheckReport, label: str, index, entries, rows_by_rid: dict
) -> None:
    if len(entries) != len(rows_by_rid):
        report.note(
            f"{label}: {len(entries)} index entr(ies) for "
            f"{len(rows_by_rid)} heap record(s)"
        )
    seen: set[Rid] = set()
    for key, rid_bytes in entries:
        try:
            rid = Rid.from_bytes(rid_bytes)
        except ReproError:
            report.note(f"{label}: entry {key.hex()} holds an undecodable RID")
            continue
        if rid in seen:
            report.note(f"{label}: RID {rid!r} indexed more than once")
        seen.add(rid)
        row = rows_by_rid.get(rid)
        if row is None:
            report.note(f"{label}: entry {key.hex()} points at dead RID {rid!r}")
            continue
        expected_key = index.key_codec.encode_row(row)
        if expected_key != key:
            report.note(
                f"{label}: RID {rid!r} stored under key {key.hex()} but the "
                f"heap row encodes to {expected_key.hex()}"
            )
