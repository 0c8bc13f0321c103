"""Small-table join operator — the paper's §7 extension sketch.

"We also want to explore, as part of a query optimizer, options such as
performing joins against small tables in the memory by reading the small
table into the FPGA and matching the tuples read from memory against it."

The *build* side (a small dimension table) is read from disaggregated
memory into the region's on-chip hash tables at query start; the *probe*
side (the large fact table) then streams through and each tuple is matched
against the build hash.  The build side must fit in BRAM — the operator
enforces the cuckoo capacity and reports build-overflow keys so the
compiler can refuse plans that would not fit the fabric.

Semantics: inner equi-join, emitting the probe tuple extended with the
selected build payload columns.  Build keys are unique (dimension-table
primary keys); a duplicate build key is a compile-time error.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import JoinBuildOverflowError, OperatorError
from ..common.records import Column, Schema, first_occurrence, key_image
from .base import RowOperator
from .cuckoo import CuckooHashTable
from .hashing import key_words


def join_output_schema(probe_schema: Schema, build_schema: Schema,
                       payload_columns: list[str]) -> Schema:
    """The post-join schema: probe columns + appended payload columns.

    Payload names colliding with a probe column are prefixed ``build_``
    (the same rule :meth:`SmallTableJoinOperator._bind` applies), so the
    software kernel, the cost model and the merge layer all agree on the
    joined layout byte for byte.
    """
    out_columns = list(probe_schema.columns)
    existing = set(probe_schema.names)
    for name in payload_columns:
        col = build_schema.column(name)
        out_name = name if name not in existing else f"build_{name}"
        if out_name in existing:
            raise OperatorError(
                f"cannot disambiguate joined column {name!r}")
        out_columns.append(Column(out_name, col.kind, col.width))
        existing.add(out_name)
    return Schema(out_columns)


def gather_join_output(out_schema: Schema, probe_rows: np.ndarray,
                       pidx: np.ndarray, build_rows: np.ndarray,
                       payload_columns: list[str],
                       bidx: np.ndarray) -> np.ndarray:
    """Joined rows: probe row ``pidx[j]`` extended with the payload columns
    of build row ``bidx[j]`` — one fancy-index gather per column."""
    out = out_schema.empty(len(pidx))
    probe_names = probe_rows.dtype.names
    for name in probe_names:
        out[name] = probe_rows[name][pidx]
    for out_name, src_name in zip(out_schema.names[len(probe_names):],
                                  payload_columns):
        out[out_name] = build_rows[src_name][bidx]
    return out


class SmallTableJoinOperator(RowOperator):
    """Inner hash join: streaming probe side vs BRAM-resident build side."""

    fill_latency_cycles = 12

    def __init__(self, build_schema: Schema, build_key: str, probe_key: str,
                 payload_columns: list[str],
                 ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32):
        super().__init__("join_small_table")
        if not payload_columns:
            raise OperatorError("join needs at least one payload column")
        if build_key in payload_columns:
            raise OperatorError(
                f"build key {build_key!r} need not be in the payload; it "
                f"equals the probe key after the join")
        self.build_schema = build_schema
        self.build_key = build_key
        self.probe_key = probe_key
        self.payload_columns = list(payload_columns)
        for name in [build_key, *payload_columns]:
            build_schema.column(name)
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self._key_width = build_schema.column(build_key).width
        self._payload_schema = build_schema.project(payload_columns)
        self._built = False
        self.build_rows_loaded = 0
        self.probe_matches = 0
        self._out_schema: Schema | None = None

    # -- build phase -------------------------------------------------------------
    def load_build(self, rows: np.ndarray) -> None:
        """Load the small table into the on-chip hash, at query start (a
        cold join loads its build on every execution).

        All keys are hashed for every way in one pass and the build *row
        indices* go in through one bulk :meth:`CuckooHashTable.insert` —
        an array pass per way, with only the rows from the first eviction
        chain on placed one at a time.  What the probe then reads is
        arrays: the table's owner image, the build key words and the
        payload columns.
        """
        if self._built:
            raise OperatorError("build side already loaded")
        image = key_image(rows, [self.build_key])
        # Errors surface in row order: rows before the first repeated key
        # may still overflow the table first.
        first, group = first_occurrence(image)
        repeated = np.flatnonzero(first[group] != np.arange(len(rows)))
        fresh = image[:repeated[0] if len(repeated) else len(rows)]
        slots = self.table.way_slots(fresh.data, self._key_width)
        if self.table.insert(fresh.tolist(), range(len(fresh)),
                             slots) < len(fresh):
            raise JoinBuildOverflowError(
                f"build side of {len(rows)} rows does not fit the "
                f"on-chip hash ({self.table.capacity} slots); offload "
                f"refused — execute the join on the client")
        if len(repeated):
            raise OperatorError(
                f"duplicate build key at row {repeated[0]}: the small "
                f"table must have unique join keys")
        self._owner = self.table.owner_image()
        self._build_words = key_words(image.data, self._key_width)
        self._payload = self._payload_schema.empty(len(rows))
        for name in self.payload_columns:
            self._payload[name] = rows[name]
        self.build_rows_loaded = len(rows)
        self._built = True

    # -- binding (probe side) ---------------------------------------------------------
    def _bind(self, schema: Schema) -> Schema:
        probe_col = schema.column(self.probe_key)
        build_col = self.build_schema.column(self.build_key)
        if probe_col.kind != build_col.kind or probe_col.width != build_col.width:
            raise OperatorError(
                f"join key type mismatch: probe {self.probe_key!r} is "
                f"{probe_col.kind}({probe_col.width}), build "
                f"{self.build_key!r} is {build_col.kind}({build_col.width})")
        self._out_schema = join_output_schema(schema, self.build_schema,
                                              self.payload_columns)
        return self._out_schema

    # -- probe phase ----------------------------------------------------------------------
    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self._built:
            raise OperatorError("probe started before the build side loaded")
        assert self._out_schema is not None
        raw = key_image(batch, [self.probe_key]).data
        words = key_words(raw, self._key_width)
        # Parallel lookup: every way is one fancy index into the owner
        # image; a candidate is a match once its key words compare equal.
        # Build keys are unique, so at most one way confirms per row.
        bidx = np.full(len(batch), -1, dtype=np.int32)
        for owner, slots in zip(self._owner,
                                self.table.way_slots(raw, self._key_width)):
            cand = owner[slots]
            hit = cand >= 0
            hit[hit] = (self._build_words[cand[hit]]
                        == words[hit]).all(axis=1)
            bidx[hit] = cand[hit]
        pidx = np.flatnonzero(bidx >= 0)
        self.probe_matches += len(pidx)
        return gather_join_output(self._out_schema, batch, pidx,
                                  self._payload, self.payload_columns,
                                  bidx[pidx]), pidx
