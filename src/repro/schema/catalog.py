"""Catalog: the registry of named tables.

A deliberately small system catalog — enough for the :class:`Database`
facade to resolve names and for the waste/advisor tooling (§4.1) to walk
every registered table when producing a database-wide report.  A table
holds its own indexes; the catalog keeps nothing about them.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import CatalogError


class Catalog:
    """Name → table registry with uniqueness enforcement.

    Tables are typed loosely (``repro.query.table.Table``; anything with
    a ``name``) to keep ``repro.schema`` free of an import cycle.
    """

    def __init__(self) -> None:
        self._tables: dict[str, object] = {}

    def register_table(self, table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def drop_table(self, name: str) -> None:
        self.table(name)
        del self._tables[name]

    def table(self, name: str):
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def tables(self) -> Iterator:
        return iter(self._tables.values())

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)
