"""FTable: client-side handle to a table in disaggregated memory (§4.2)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import CatalogError, QueryError
from ..common.records import Schema


@dataclass
class FTable:
    """A table stored (or to be stored) in Farview's buffer pool.

    Mirrors the paper's ``FTable`` argument to the data API: the client
    holds the catalog information (schema, row count, virtual address)
    needed to issue reads against the disaggregated memory.
    """

    name: str
    schema: Schema
    num_rows: int
    vaddr: int | None = None          # set by alloc_table_mem
    domain: int | None = None         # owning protection domain (§4.4)
    encrypted: bool = False
    key: bytes | None = None
    nonce: bytes | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table needs a non-empty name")
        if self.num_rows < 0:
            raise CatalogError(f"negative row count: {self.num_rows}")
        if self.encrypted and (self.key is None or self.nonce is None):
            raise CatalogError(
                f"encrypted table {self.name!r} needs key and nonce")

    @property
    def size_bytes(self) -> int:
        return self.num_rows * self.schema.row_width

    @property
    def allocated(self) -> bool:
        return self.vaddr is not None

    def require_allocated(self) -> int:
        if self.vaddr is None:
            raise CatalogError(
                f"table {self.name!r} has no disaggregated memory; call "
                f"alloc_table_mem first")
        return self.vaddr

    def validate_rows(self, rows: np.ndarray) -> None:
        if rows.dtype != self.schema.dtype:
            raise QueryError(
                f"rows dtype {rows.dtype} does not match table schema "
                f"{self.schema.dtype}")
        if len(rows) != self.num_rows:
            raise QueryError(
                f"table {self.name!r} declared {self.num_rows} rows, got "
                f"{len(rows)}")

    def __repr__(self) -> str:
        loc = f"vaddr={self.vaddr:#x}" if self.allocated else "unallocated"
        return (f"FTable({self.name!r}, {self.num_rows} rows x "
                f"{self.schema.row_width} B, {loc})")
