"""Functional software operators used by the CPU baselines.

These mirror what the paper's C++ baseline code does: tight scans with all
compiler optimizations (numpy vector kernels here), grouping through a fast
hash map (the interpreter's own dict, driven from C by
:func:`~repro.common.records.first_occurrence`), RE2-style regex matching
(our linear-time engine), and Cryptopp-style AES (our AES-CTR).  They
return both the result and the instrumentation the cost model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from ..common.errors import OperatorError
from ..common.expr import Expr, eval_mask
from ..common.records import (Schema, first_occurrence, key_image,
                              take_rows)
from ..operators.aggregate import (
    Accumulator,
    AggregateSpec,
    accumulator_rows,
    batch_accumulate,
    fold_groups,
    grouped_schema,
    value_columns,
)
from ..operators.crypto import AesCtr
from ..operators.join import gather_join_output, join_output_schema
from ..operators.regex_engine import CompiledRegex


def software_select(rows: np.ndarray, predicate: Expr) -> np.ndarray:
    """Scan + filter, as the LCPU query thread would."""
    if len(rows) == 0:
        return rows
    return take_rows(rows, eval_mask(predicate, rows))


def software_project(rows: np.ndarray, schema: Schema,
                     columns: list[str]) -> np.ndarray:
    out_schema = schema.project(columns)
    out = out_schema.empty(len(rows))
    for name in columns:
        out[name] = rows[name]
    return out


def map_resizes(distinct: int) -> int:
    """Growth steps of the modelled hash map (the parallel-hashmap family,
    §6.5) after ``distinct`` keys: 16 slots, doubling each time the load
    reaches 7/8 — at 14, 28, 56, ... keys.  The cost model reads one bit
    of it: did the map grow at all."""
    return (distinct // (16 * 7 // 8)).bit_length()


@dataclass
class DistinctOutput:
    rows: np.ndarray
    map_resizes: int


def software_distinct(rows: np.ndarray, schema: Schema,
                      key_columns: Optional[Sequence[str]]) -> DistinctOutput:
    """Hash-based DISTINCT: the first row of every key (``None``: the
    whole row), in row order."""
    first, _ = first_occurrence(key_image(rows, key_columns or schema.names))
    return DistinctOutput(rows=take_rows(rows, first),
                          map_resizes=map_resizes(len(first)))


@dataclass
class GroupByOutput:
    rows: np.ndarray
    num_groups: int
    map_resizes: int


def software_groupby(rows: np.ndarray, schema: Schema,
                     key_columns: list[str],
                     aggregates: list[AggregateSpec]) -> GroupByOutput:
    """Hash aggregation: groups in first-seen order, every value folded in
    row order — a group's sum accumulates sequentially from ``0.0`` as a
    float64, its min / max keep the column's dtype, byte for byte what
    the reference model's loop computes."""
    first, group = first_occurrence(key_image(rows, key_columns))
    out = grouped_schema(schema, key_columns, aggregates).empty(len(first))
    for name in key_columns:
        out[name] = rows[name][first]
    count = np.bincount(group, minlength=len(first))
    for spec in aggregates:
        if spec.func == "count":
            out[spec.alias] = count
        elif spec.func in ("min", "max"):
            out[spec.alias] = fold_groups(spec.func, rows[spec.column],
                                          first, group)
        else:
            total = np.zeros(len(first))
            np.add.at(total, group, rows[spec.column].astype(np.float64))
            out[spec.alias] = total if spec.func == "sum" else total / count
    return GroupByOutput(rows=out, num_groups=len(first),
                         map_resizes=map_resizes(len(first)))


def software_aggregate(rows: np.ndarray, schema: Schema,
                       aggregates: list[AggregateSpec]) -> np.ndarray:
    """Whole-table aggregation without grouping: one output row.

    Byte-compatible with the offloaded
    :class:`~repro.operators.aggregate.StandaloneAggregateOperator`
    (same output schema, same accumulator arithmetic, one whole-column
    sum on both sides: the node runs its operators once per scan), so
    the hybrid planner can run the final aggregation on the client.
    """
    columns = value_columns(aggregates)
    acc = Accumulator(len(columns))
    # Same accumulation kernel as the offloaded operator (min/max stay in
    # the column dtype, no per-value float round-trip), so large-integer
    # extremes survive bit-exactly.
    batch_accumulate(acc, rows, columns)
    return accumulator_rows(grouped_schema(schema, (), aggregates), (),
                            aggregates, {b"": acc} if acc.count else {})


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
    bkeys = key_image(build_rows, [build_key])
    build_row = dict(zip(bkeys.tolist(), range(len(bkeys))))
    if len(build_row) < len(bkeys):
        first, group = first_occurrence(bkeys)
        repeated = np.flatnonzero(first[group] != np.arange(len(bkeys)))
        raise OperatorError(
            f"duplicate build key at row {repeated[0]}: the small table "
            f"must have unique join keys")
    pkeys = key_image(rows, [probe_key]).tolist()
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
    return take_rows(rows, idx)


def software_limit(rows: np.ndarray, count: int) -> np.ndarray:
    """LIMIT: the first ``count`` rows of the (already ordered) input."""
    return rows[:count]


def software_regex(rows: np.ndarray, column: str,
                   pattern: str) -> np.ndarray:
    """RE2-equivalent filter over a char column."""
    return take_rows(rows, CompiledRegex(pattern).search_column(rows[column]))


def software_decrypt(image: bytes, key: bytes, nonce: bytes) -> bytes:
    """Cryptopp-equivalent AES-128-CTR decryption of a table image."""
    return AesCtr(key, nonce).process(image)
