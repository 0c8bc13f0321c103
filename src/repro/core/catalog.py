"""Client-side catalog (paper §4.1: "We assume that the clients have local
catalog information that is used to determine the addresses of the tables
to be accessed")."""

from __future__ import annotations

from ..common.errors import CatalogError
from .table import Table


class Catalog:
    """Name -> :class:`~repro.core.table.Table` registry shared by the
    query threads of one client."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def register(self, table: Table) -> Table:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        return table

    def deregister(self, name: str) -> Table:
        if name not in self._tables:
            raise CatalogError(f"table {name!r} not in catalog")
        return self._tables.pop(name)

    def lookup(self, name: str) -> Table:
        if name not in self._tables:
            raise CatalogError(
                f"table {name!r} not in catalog; known: {sorted(self._tables)}")
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def names(self) -> list[str]:
        return sorted(self._tables)
