"""Column analyzers (§4.1): learn what a column *actually* stores.

"Column values can be analyzed to understand the typical value range or
the content properties (e.g., only numerical strings) and compare them
against the declared types in the schema."  A :class:`ColumnProfile` is
that analysis: one pass over the values, collecting exactly the properties
the type-inference rules in :mod:`repro.core.encoding.inference` consume.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SchemaError
from repro.schema.types import PhysicalType, TypeKind

_TS14_RE = re.compile(r"^\d{14}$")
_NUMERIC_RE = re.compile(r"^-?\d+$")


@dataclass(frozen=True)
class ColumnProfile:
    """One-pass statistics over a column's values.

    ``distinct_count`` is exact up to ``distinct_cap`` and saturates there
    (reported as ``distinct_capped=True``) — the dictionary-encoding rule
    only cares whether cardinality is small.
    """

    name: str
    declared: PhysicalType
    count: int
    distinct_count: int
    distinct_capped: bool
    # integer-family facts (None when not applicable)
    min_int: int | None
    max_int: int | None
    bool_like: bool
    # string-family facts
    max_strlen: int
    all_numeric_strings: bool
    all_timestamp14_strings: bool
    numeric_min: int | None
    numeric_max: int | None
    is_constant: bool

def profile_column(
    name: str,
    declared: PhysicalType,
    values: list[object],
    distinct_cap: int = 65536,
) -> ColumnProfile:
    """Profile ``values`` (all of them) against their declared type."""
    if not values:
        raise SchemaError(f"cannot profile empty column {name!r}")
    kind = declared.kind
    distinct: set[object] = set()
    capped = False

    min_int: int | None = None
    max_int: int | None = None
    bool_like = True

    max_strlen = 0
    all_numeric = True
    all_ts14 = True
    numeric_min: int | None = None
    numeric_max: int | None = None

    int_family = kind in (
        TypeKind.INT, TypeKind.UINT, TypeKind.TIMESTAMP, TypeKind.DATE,
        TypeKind.YEAR, TypeKind.BOOL,
    )
    str_family = kind in (
        TypeKind.CHAR, TypeKind.VARCHAR, TypeKind.TIMESTAMP_STRING,
    )

    for value in values:
        if len(distinct) < distinct_cap:
            distinct.add(value)
        elif value not in distinct:
            capped = True
        if int_family:
            iv = int(value)  # type: ignore[arg-type]
            min_int = iv if min_int is None else min(min_int, iv)
            max_int = iv if max_int is None else max(max_int, iv)
            if iv not in (0, 1):
                bool_like = False
        elif str_family:
            sv = str(value)
            max_strlen = max(max_strlen, len(sv))
            if all_ts14 and not _TS14_RE.match(sv):
                all_ts14 = False
            if all_numeric and _NUMERIC_RE.match(sv):
                nv = int(sv)
                numeric_min = nv if numeric_min is None else min(numeric_min, nv)
                numeric_max = nv if numeric_max is None else max(numeric_max, nv)
            else:
                all_numeric = False
        else:
            bool_like = False
            all_numeric = False
            all_ts14 = False

    if not int_family:
        bool_like = False
    if not str_family:
        all_numeric = False
        all_ts14 = False

    return ColumnProfile(
        name=name,
        declared=declared,
        count=len(values),
        distinct_count=len(distinct),
        distinct_capped=capped,
        min_int=min_int,
        max_int=max_int,
        bool_like=bool_like,
        max_strlen=max_strlen,
        all_numeric_strings=all_numeric,
        all_timestamp14_strings=all_ts14,
        numeric_min=numeric_min,
        numeric_max=numeric_max,
        is_constant=len(distinct) == 1 and not capped,
    )
