"""Functional software operators used by the CPU baselines.

These mirror what the paper's C++ baseline code does: tight scans with all
compiler optimizations (numpy vector kernels here), hashing through a fast
resizable map (:class:`SoftwareHashMap`), RE2-style regex matching (our
linear-time engine), and Cryptopp-style AES (our AES-CTR).  They return
both the result and the instrumentation the cost model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Schema
from ..operators.aggregate import Accumulator, AggregateSpec, batch_accumulate
from ..operators.crypto import AesCtr
from ..operators.join import (
    first_repeated_row,
    gather_join_output,
    join_output_schema,
    key_image,
)
from ..operators.regex_engine import CompiledRegex
from ..operators.selection import Predicate
from .hashmap import SoftwareHashMap


def software_select(rows: np.ndarray, predicate: Predicate) -> np.ndarray:
    """Scan + filter, as the LCPU query thread would."""
    if len(rows) == 0:
        return rows
    return rows[predicate.evaluate(rows)]


def software_project(rows: np.ndarray, schema: Schema,
                     columns: list[str]) -> np.ndarray:
    out_schema = schema.project(columns)
    out = out_schema.empty(len(rows))
    for name in columns:
        out[name] = rows[name]
    return out


@dataclass
class DistinctOutput:
    rows: np.ndarray
    map_resizes: int
    rehashed_entries: int


def software_distinct(rows: np.ndarray, schema: Schema,
                      key_columns: list[str]) -> DistinctOutput:
    """Hash-based DISTINCT through the resizable software map."""
    key_schema = schema.project(key_columns)
    keys = key_schema.empty(len(rows))
    for name in key_columns:
        keys[name] = rows[name]
    raw = key_schema.to_bytes(keys)
    width = key_schema.row_width
    table = SoftwareHashMap()
    keep = np.zeros(len(rows), dtype=bool)
    for i in range(len(rows)):
        key = raw[i * width:(i + 1) * width]
        if table.put(key, True):
            keep[i] = True
    return DistinctOutput(rows=rows[keep], map_resizes=table.resizes,
                          rehashed_entries=table.rehashed_entries)


@dataclass
class GroupByOutput:
    rows: np.ndarray
    num_groups: int
    map_resizes: int


def software_groupby(rows: np.ndarray, schema: Schema,
                     key_columns: list[str],
                     aggregates: list[AggregateSpec]) -> GroupByOutput:
    """Hash aggregation through the resizable software map."""
    key_schema = schema.project(key_columns)
    keys = key_schema.empty(len(rows))
    for name in key_columns:
        keys[name] = rows[name]
    raw = key_schema.to_bytes(keys)
    width = key_schema.row_width
    value_columns = sorted({s.column for s in aggregates
                            if not (s.func == "count" and s.column == "*")})
    columns = [rows[name] for name in value_columns]
    table = SoftwareHashMap()
    order: list[bytes] = []
    for i in range(len(rows)):
        key = raw[i * width:(i + 1) * width]
        acc = table.get(key)
        if acc is None:
            acc = Accumulator(len(value_columns))
            table.put(key, acc)
            order.append(key)
        acc.update(tuple(float(col[i]) for col in columns))
    out_columns = ([schema.column(k) for k in key_columns]
                   + [s.output_column(schema) for s in aggregates])
    out_schema = Schema(out_columns)
    out = out_schema.empty(len(order))
    for i, key in enumerate(order):
        acc = table.get(key)
        key_row = key_schema.from_bytes(key)
        for name in key_columns:
            out[name][i] = key_row[name][0]
        for spec in aggregates:
            idx = (value_columns.index(spec.column)
                   if spec.column in value_columns else 0)
            out[spec.alias][i] = acc.result(spec, idx)
    return GroupByOutput(rows=out, num_groups=len(order),
                         map_resizes=table.resizes)


def software_aggregate(rows: np.ndarray, schema: Schema,
                       aggregates: list[AggregateSpec]) -> np.ndarray:
    """Whole-table aggregation without grouping: one output row.

    Byte-compatible with the offloaded
    :class:`~repro.operators.aggregate.StandaloneAggregateOperator`
    (same output schema, same accumulator arithmetic), so the hybrid
    planner can run the final aggregation on the client.
    """
    value_columns = sorted({s.column for s in aggregates
                            if not (s.func == "count" and s.column == "*")})
    acc = Accumulator(len(value_columns))
    # Same accumulation kernel as the offloaded operator (min/max stay in
    # the column dtype, no per-value float round-trip), so large-integer
    # extremes survive bit-exactly.
    batch_accumulate(acc, rows, value_columns)
    out_schema = Schema([s.output_column(schema) for s in aggregates])
    if acc.count == 0:
        return out_schema.empty(0)
    out = out_schema.empty(1)
    for spec in aggregates:
        idx = (value_columns.index(spec.column)
               if spec.column in value_columns else 0)
        out[spec.alias][0] = acc.result(spec, idx)
    return out


def software_join(rows: np.ndarray, schema: Schema,
                  build_rows: np.ndarray, build_schema: Schema,
                  build_key: str, probe_key: str,
                  payload_columns: list[str]) -> np.ndarray:
    """Inner hash join on the client, as the LCPU query thread would.

    Byte-compatible with
    :class:`~repro.operators.join.SmallTableJoinOperator`: the build hash
    is keyed on the serialized key image, build keys must be unique, and
    matched probe tuples are emitted in probe order with the payload
    columns appended under the same collision-renaming rule — so the
    hybrid planner can ship a join and still produce the offloaded bytes
    exactly.  Unlike the on-chip hash there is no capacity ceiling: this
    kernel is where a build-overflow refusal sends the join.
    """
    probe_col = schema.column(probe_key)
    build_col = build_schema.column(build_key)
    if probe_col.kind != build_col.kind or probe_col.width != build_col.width:
        raise OperatorError(
            f"join key type mismatch: probe {probe_key!r} is "
            f"{probe_col.kind}({probe_col.width}), build "
            f"{build_key!r} is {build_col.kind}({build_col.width})")
    # Build: key bytes -> build row.  Probe: one lookup per probe key, all
    # in C (no map counters are reported, so the cost model reads nothing
    # from this kernel's hash structure).
    bkeys = key_image(build_rows, build_key).tolist()
    build_row = dict(zip(bkeys, range(len(bkeys))))
    if len(build_row) < len(bkeys):
        raise OperatorError(
            f"duplicate build key at row {first_repeated_row(bkeys)}: the "
            f"small table must have unique join keys")
    pkeys = key_image(rows, probe_key).tolist()
    bidx = np.fromiter(map(build_row.get, pkeys, repeat(-1)),
                       dtype=np.intp, count=len(pkeys))
    pidx = np.flatnonzero(bidx >= 0)
    out_schema = join_output_schema(schema, build_schema, payload_columns)
    return gather_join_output(out_schema, rows, pidx, build_rows,
                              payload_columns, bidx[pidx])


def software_sort(rows: np.ndarray, keys: list[tuple[str, bool]]
                  ) -> np.ndarray:
    """Deterministic multi-key sort (ORDER BY's client-side kernel).

    Stable lexicographic sort: iterate the keys last-to-first, each pass
    a stable argsort.  Descending keys are handled by negating the
    *rank* of each value (``np.unique`` inverse), not the value itself,
    so char and float columns order correctly without overflow.
    """
    if len(rows) == 0:
        return rows
    idx = np.arange(len(rows))
    for name, ascending in reversed(keys):
        codes = np.unique(rows[name][idx], return_inverse=True)[1]
        if not ascending:
            codes = -codes
        idx = idx[np.argsort(codes, kind="stable")]
    return rows[idx]


def software_limit(rows: np.ndarray, count: int) -> np.ndarray:
    """LIMIT: the first ``count`` rows of the (already ordered) input."""
    return rows[:count]


def software_regex(rows: np.ndarray, column: str,
                   pattern: str) -> np.ndarray:
    """RE2-equivalent filter over a char column."""
    regex = CompiledRegex(pattern)
    keep = np.zeros(len(rows), dtype=bool)
    values = rows[column]
    for i in range(len(rows)):
        keep[i] = regex.search(bytes(values[i]))
    return rows[keep]


def software_decrypt(image: bytes, key: bytes, nonce: bytes) -> bytes:
    """Cryptopp-equivalent AES-128-CTR decryption of a table image."""
    return AesCtr(key, nonce).process(image)
