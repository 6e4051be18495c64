"""Columnar batch execution for the hot partition (DESIGN.md §5h).

The row engine's per-tuple interpreter loop is the dominant cost on
scan/aggregate-heavy workloads.  This package mirrors a table's heap
column-major (:mod:`store`), compresses sealed segments with the §4
encoding-waste codecs (:mod:`codecs`), filters and aggregates whole
column vectors per interpreter step (:mod:`executor`), and reuses whole
answers and per-segment work until a write to what they were derived
from drops them (:mod:`store`).  ``Database.enable_columnar()``
is the only entry point; the row executor remains the oracle and serves
any predicate the vectorized path cannot compile.
"""

from repro.columnar.codecs import EncodedColumn, decode_column, encode_column
from repro.columnar.executor import compile_predicate
from repro.columnar.manager import ColumnarManager, TableColumnar
from repro.columnar.store import ColumnSegment, ColumnStore, SEGMENT_ROWS

__all__ = [
    "ColumnSegment",
    "ColumnStore",
    "ColumnarManager",
    "EncodedColumn",
    "SEGMENT_ROWS",
    "TableColumnar",
    "compile_predicate",
    "decode_column",
    "encode_column",
]
