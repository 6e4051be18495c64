"""Schema and Column: the fixed-length record layout used everywhere.

A :class:`Schema` is an ordered list of named, typed columns.  Because all
physical types are fixed width, a schema induces a byte layout: each column
has a fixed offset within the packed record, and the record width is the sum
of column sizes.  The index cache, the heap pages, and the waste analyzer
all depend on this arithmetic being exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import SchemaError
from repro.schema.types import PhysicalType, TypeKind

#: The one Python type per kind that ``pack_record`` hands straight to the
#: ``Struct``; any other value is judged by :meth:`PhysicalType.validate`.
_EXACT_TYPE: dict[TypeKind, type] = {
    TypeKind.BOOL: bool, TypeKind.FLOAT: float,
    TypeKind.CHAR: str, TypeKind.VARCHAR: str, TypeKind.TIMESTAMP_STRING: str,
    TypeKind.INT: int, TypeKind.UINT: int, TypeKind.TIMESTAMP: int,
    TypeKind.DATE: int, TypeKind.YEAR: int,
}


class _RecordStruct(struct.Struct):
    """The record's ``Struct``, with what ``pack_record`` checks first:
    each column's exact ``types``, each text column's ``(position,
    width)`` in ``texts`` (an ``Ns`` code truncates a longer value)."""


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Attributes:
        name: column name, unique within a schema.
        ctype: the physical type this column is *stored* as.
        declared: the type the application declared.  When ``None`` the
            declared and stored types coincide.  The encoding advisor (§4)
            produces schemas whose ``ctype`` is narrower than ``declared``;
            keeping both lets reports show the before/after.
    """

    name: str
    ctype: PhysicalType
    declared: PhysicalType | None = None

    @property
    def declared_type(self) -> PhysicalType:
        """The application-declared type (defaults to the stored type)."""
        return self.declared if self.declared is not None else self.ctype

    @property
    def size(self) -> int:
        """Stored width in bytes."""
        return self.ctype.size


@dataclass(frozen=True)
class Schema:
    """An ordered, fixed-width record layout."""

    columns: tuple[Column, ...]
    _offsets: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    _index: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    #: Column names in order, and the packed record width in bytes; both
    #: read on every serde call, so computed once here.
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    record_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        offset = 0
        for i, col in enumerate(self.columns):
            if col.name in self._index:
                raise SchemaError(f"duplicate column name {col.name!r}")
            self._index[col.name] = i
            self._offsets[col.name] = offset
            offset += col.size
        object.__setattr__(self, "names", tuple(self._index))
        object.__setattr__(self, "record_size", offset)

    def __reduce__(self):
        # Copies and pickles rebuild from the columns: the compiled
        # ``codec`` is derived state (and a ``Struct`` does neither).
        return type(self), (self.columns,)

    @classmethod
    def of(cls, *cols: tuple[str, PhysicalType]) -> "Schema":
        """Build a schema from ``(name, type)`` pairs.

        Example::

            Schema.of(("page_id", UINT32), ("title", varchar(64)))
        """
        return cls(tuple(Column(name, ctype) for name, ctype in cols))

    # -- geometry ----------------------------------------------------------

    @cached_property
    def codec(self) -> tuple[_RecordStruct, tuple, tuple]:
        """``(struct, pre, post)``: ONE compiled ``Struct`` for the whole
        record, built on first use from each column's
        :meth:`PhysicalType.wire`, and the ``(position, step)`` pairs to
        apply before packing / after unpacking (``schema.record`` does)."""
        wires = [col.ctype.wire() for col in self.columns]
        packer = _RecordStruct("<" + "".join(code for code, _, _ in wires))
        packer.types = tuple(_EXACT_TYPE[col.ctype.kind] for col in self.columns)
        packer.texts = tuple((i, col.size) for i, col in enumerate(self.columns)
                             if packer.types[i] is str)
        return (
            packer,
            tuple((i, pre) for i, (_, pre, _) in enumerate(wires) if pre),
            tuple((i, post) for i, (_, _, post) in enumerate(wires) if post),
        )

    def column(self, name: str) -> Column:
        """The :class:`Column` named ``name``."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.columns)

    # -- derivation --------------------------------------------------------

    def project(self, names: list[str] | tuple[str, ...]) -> "Schema":
        """A schema containing only the named columns, in the given order."""
        return Schema(tuple(self.column(n) for n in names))

    def with_stored_types(self, stored: dict[str, PhysicalType]) -> "Schema":
        """A physically re-typed schema (the §4 "schema as hint" rewrite).

        Each column present in ``stored`` is re-typed to its new physical
        type while remembering the original declared type, so waste reports
        can compare them.
        """
        cols = []
        for col in self.columns:
            if col.name in stored:
                cols.append(
                    Column(col.name, stored[col.name], declared=col.declared_type)
                )
            else:
                cols.append(col)
        return Schema(tuple(cols))

    def drop(self, names: set[str] | list[str]) -> "Schema":
        """A schema without the named columns (used by ID elision, §4.2)."""
        dropped = set(names)
        missing = dropped - set(self.names)
        if missing:
            raise SchemaError(f"cannot drop unknown columns {sorted(missing)}")
        return Schema(tuple(c for c in self.columns if c.name not in dropped))

    def describe(self) -> str:
        """Human-readable one-line-per-column description."""
        lines = []
        for col in self.columns:
            note = ""
            if col.declared is not None and col.declared != col.ctype:
                note = f"  (declared {col.declared.name})"
            lines.append(f"  {col.name}: {col.ctype.name} [{col.size} B]{note}")
        return "\n".join(lines)
