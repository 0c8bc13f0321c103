"""Client-side catalog (paper §4.1: "We assume that the clients have local
catalog information that is used to determine the addresses of the tables
to be accessed")."""

from __future__ import annotations

from ..common.errors import CatalogError
from .compile import (BoundSelect, ParsedQuery, ParsedWrite, bind_select,
                      parse_sql)
from .table import Table

#: How many bound SELECTs one catalog keeps; past it the least recently
#: used one goes first.
_PREPARED_CAP = 256


class Catalog:
    """Name -> :class:`~repro.core.table.Table` registry shared by the
    query threads of one client, and the SELECTs bound against it."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        #: Statement text -> its parse and bound SELECT, least recently
        #: used first.  A binding reads only the tables' names, schemas
        #: and partition specs, so it holds until a table is registered
        #: or deregistered.
        self._prepared: dict[str, tuple[ParsedQuery, BoundSelect]] = {}

    def prepare(self, statement: str
                ) -> tuple[ParsedQuery | ParsedWrite, BoundSelect | None]:
        """The one prepare route: ``statement``'s parse and, for a
        SELECT, its :class:`~repro.core.compile.BoundSelect` (``None``
        for a write).  A SELECT is parsed and bound once per text per
        catalog state; writes, whose literals make each text unique, and
        statements that fail to parse or bind are never kept."""
        prepared = self._prepared.pop(statement, None)
        if prepared is None:
            parsed = parse_sql(statement)
            if isinstance(parsed, ParsedWrite):
                return parsed, None
            prepared = parsed, bind_select(parsed, self)
            if len(self._prepared) >= _PREPARED_CAP:
                del self._prepared[next(iter(self._prepared))]
        self._prepared[statement] = prepared
        return prepared

    def register(self, table: Table) -> Table:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        self._prepared.clear()
        return table

    def deregister(self, name: str) -> Table:
        if name not in self._tables:
            raise CatalogError(f"table {name!r} not in catalog")
        self._prepared.clear()
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
