"""Catalog: the registry of named tables and indexes.

A deliberately small system catalog — enough for the :class:`Database`
facade to resolve names and for the waste/advisor tooling (§4.1) to walk
every registered table when producing a database-wide report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import CatalogError
from repro.schema.schema import Schema


@dataclass
class TableEntry:
    """Catalog record for one table."""

    name: str
    schema: Schema
    table: object  # repro.query.table.Table; typed loosely to avoid a cycle
    index_names: list[str] = field(default_factory=list)


@dataclass
class IndexEntry:
    """Catalog record for one index."""

    name: str
    table_name: str
    key_columns: tuple[str, ...]
    index: object  # BPlusTree or CachedBTree


class Catalog:
    """Name → table/index registry with uniqueness enforcement."""

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._indexes: dict[str, IndexEntry] = {}

    # -- tables ------------------------------------------------------------

    def register_table(self, name: str, schema: Schema, table: object) -> TableEntry:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        entry = TableEntry(name=name, schema=schema, table=table)
        self._tables[name] = entry
        return entry

    def drop_table(self, name: str) -> None:
        entry = self.table(name)
        for index_name in list(entry.index_names):
            self._indexes.pop(index_name, None)
        del self._tables[name]

    def table(self, name: str) -> TableEntry:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[TableEntry]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    # -- indexes -----------------------------------------------------------

    def register_index(
        self,
        name: str,
        table_name: str,
        key_columns: tuple[str, ...],
        index: object,
    ) -> IndexEntry:
        if name in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table_entry = self.table(table_name)
        entry = IndexEntry(
            name=name,
            table_name=table_name,
            key_columns=key_columns,
            index=index,
        )
        self._indexes[name] = entry
        table_entry.index_names.append(name)
        return entry

    def index(self, name: str) -> IndexEntry:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no index named {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    def indexes_of(self, table_name: str) -> list[IndexEntry]:
        entry = self.table(table_name)
        return [self._indexes[n] for n in entry.index_names]
