"""Aggregation operators: count, min, max, sum, average (paper §5.4).

Aggregations run either *standalone* ("simple computations are performed
directly on the passing data streams") or on top of the group-by operator
(each hash-table entry carries accumulator state).  This module provides
the standalone operator, the accumulator it runs on, and the grouped
folds the group-by operator, the software kernels and the shard merge
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..common.errors import OperatorError, QueryError
from ..common.records import Column, Schema
from .base import NO_SOURCE, RowOperator

SUPPORTED_FUNCS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregation: ``func(column) AS alias``.

    ``count`` ignores ``column`` (may be ``"*"``).
    """

    func: str
    column: str
    alias: str = ""

    def __post_init__(self) -> None:
        if self.func not in SUPPORTED_FUNCS:
            raise QueryError(
                f"unsupported aggregate {self.func!r}; supported: "
                f"{SUPPORTED_FUNCS}")
        if not self.alias:
            object.__setattr__(self, "alias", f"{self.func}_{self.column}"
                               .replace("*", "star"))

    def validate(self, schema: Schema) -> None:
        if self.func == "count" and self.column == "*":
            return
        col = schema.column(self.column)
        if col.kind == "char":
            raise QueryError(
                f"cannot aggregate char column {self.column!r} with "
                f"{self.func!r}")

    def output_column(self, schema: Schema) -> Column:
        if self.func == "count":
            return Column(self.alias, "uint64", 8)
        if self.func == "avg":
            return Column(self.alias, "float64", 8)
        kind = schema.column(self.column).kind
        return Column(self.alias, kind, 8)


def grouped_schema(schema: Schema, keys: Sequence[str],
                   specs: Sequence[AggregateSpec]) -> Schema:
    """The output of grouping ``schema`` on ``keys``: the key columns,
    then each spec's output column.  No keys is the one global row."""
    return Schema([schema.column(k) for k in keys]
                  + [s.output_column(schema) for s in specs])


def value_columns(specs: Sequence[AggregateSpec]) -> list[str]:
    """The columns ``specs`` read, sorted: one accumulator lane each
    (``count(*)`` reads none)."""
    return sorted({s.column for s in specs
                   if not (s.func == "count" and s.column == "*")})


class Accumulator:
    """One group's aggregate state: what the standalone aggregation keeps
    running (:func:`batch_accumulate`) and the wire form of a GROUP BY
    group that overflowed to the client (the operator's resident groups
    are columns, not objects)."""

    __slots__ = ("count", "sums", "mins", "maxs")

    def __init__(self, num_value_columns: int):
        self.count = 0
        self.sums = [0.0] * num_value_columns
        self.mins = [None] * num_value_columns
        self.maxs = [None] * num_value_columns

    def result(self, spec: AggregateSpec, column_index: int):
        if self.count == 0:
            raise OperatorError("empty accumulator has no result")
        if spec.func == "count":
            return self.count
        if spec.func == "sum":
            return self.sums[column_index]
        if spec.func == "avg":
            return self.sums[column_index] / self.count
        if spec.func == "min":
            return self.mins[column_index]
        return self.maxs[column_index]


def batch_accumulate(acc: Accumulator, batch: np.ndarray,
                     value_columns: list[str]) -> None:
    """Vectorized accumulation of a whole batch into one accumulator."""
    n = len(batch)
    if n == 0:
        return
    acc.count += n
    for i, name in enumerate(value_columns):
        col = batch[name]
        acc.sums[i] += float(col.sum())
        lo, hi = col.min(), col.max()
        if acc.mins[i] is not None:
            # A NaN anywhere wins a global MIN/MAX (the reference is
            # ``col.min()`` over the whole column): fold the batches with
            # the NaN-propagating ufuncs, not with ``lo < current``, which
            # is false on a NaN in either seat.
            lo, hi = np.minimum(acc.mins[i], lo), np.maximum(acc.maxs[i], hi)
        acc.mins[i], acc.maxs[i] = lo, hi


def accumulator_rows(out_schema: Schema, key_columns: Sequence[str],
                     specs: Sequence[AggregateSpec],
                     groups: dict[bytes, Accumulator]) -> np.ndarray:
    """One output row per ``key image -> accumulator`` entry, in dict order.

    The key columns lead ``out_schema`` (the GROUP BY output layout), so
    the joined key images decode as one column gather; each aggregate
    column is then read off the accumulators.  A standalone aggregation
    is the zero-key-column case.
    """
    out = out_schema.empty(len(groups))
    if key_columns:
        keys = out_schema.project(key_columns).from_bytes(b"".join(groups))
        for name in key_columns:
            out[name] = keys[name]
    columns = value_columns(specs)
    for spec in specs:
        idx = columns.index(spec.column) if spec.column in columns else 0
        out[spec.alias] = [acc.result(spec, idx) for acc in groups.values()]
    return out


#: How one aggregate's values fold within a group — and, equally, how a
#: shard-local partial column merges across shards (partial counts add).
#: ``avg`` never appears here: the software kernel divides a sum by a
#: count and :func:`decompose_partials` rewrites it into that pair.
_GROUP_FOLD = {
    "count": np.add,
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def fold_extreme(func: str, out: np.ndarray, group: np.ndarray,
                 values: np.ndarray) -> None:
    """Fold ``values`` into the running ``min`` / ``max`` ``out[group]``,
    in place and in row order — the one min/max fold, seeded from running
    state by the GROUP BY operator and from each group's first value by
    :func:`fold_groups`.

    It computes what the per-row loop ``if v < current: current = v``
    does, which takes two rules beyond the ufunc:

    * a NaN sticks only as a group's first value (``v < nan`` and
      ``nan < current`` are both false), so NaN rows and NaN-seeded groups
      never reach the ufunc;
    * the first of equal values wins, where ``np.minimum`` / ``np.maximum``
      return the later operand.  Only ``0.0`` and ``-0.0`` are equal yet
      distinct, so a group whose extreme is a zero takes its first one:
      the running value if that is a zero, else its first zero row.
    """
    current = out[group]
    # ``x == x`` is false exactly on NaN.
    live = (values == values) & (current == current)
    group, values, current = group[live], values[live], current[live]
    _GROUP_FOLD[func].at(out, group, values)
    zeros = np.flatnonzero((out[group] == 0) & (values == 0))
    if len(zeros):
        tied, at = np.unique(group[zeros], return_index=True)
        first = zeros[at]
        out[tied] = np.where(current[first] == 0, current[first],
                             values[first])


def fold_groups(func: str, values: np.ndarray, first: np.ndarray,
                group: np.ndarray) -> np.ndarray:
    """Left-fold ``values`` per group in row order, seeded with each
    group's first value; ``(first, group)`` come from
    :func:`~repro.common.records.first_occurrence`.

    ``ufunc.at`` applies one element at a time, so a float sum
    accumulates sequentially exactly as a per-row loop would; ``min`` /
    ``max`` go through :func:`fold_extreme` and keep its NaN and tie rules
    — what the reference model defines.
    """
    out = values[first]
    rest = np.ones(len(values), dtype=bool)
    rest[first] = False
    if func in ("min", "max"):
        fold_extreme(func, out, group[rest], values[rest])
    else:
        _GROUP_FOLD[func].at(out, group[rest], values[rest])
    return out


# -- distributed partial aggregation ------------------------------------------

#: Alias prefix for synthesized shard-local partial columns; reserved so it
#: can never collide with user aliases or group-key names.
PARTIAL_PREFIX = "__fvpart_"


@dataclass(frozen=True)
class PartialPlan:
    """How one original aggregate is rebuilt from merged shard partials.

    ``mode`` is ``"direct"`` (the merged column *is* the final value) or
    ``"ratio"`` (final = sources[0] / sources[1], the avg = sum / count
    decomposition); ``sources`` are aliases into the shard output schema.
    """

    spec: AggregateSpec
    mode: str
    sources: tuple[str, ...]

    def finalize(self, merged: dict[str, np.ndarray]) -> np.ndarray:
        """Final column of this aggregate from the merged partial columns
        (one element per group)."""
        if self.mode == "direct":
            return merged[self.sources[0]]
        numerator, count = (merged[s] for s in self.sources)
        if not count.all():
            raise OperatorError(f"{self.spec.alias}: empty group in merge")
        return numerator / count


def decompose_partials(
        specs: list[AggregateSpec] | tuple[AggregateSpec, ...],
) -> tuple[list[AggregateSpec], list[PartialPlan]]:
    """Rewrite aggregates into shard-local partials that merge exactly.

    ``count``, ``sum``, ``min`` and ``max`` are already decomposable (the
    per-shard partial merges with :func:`fold_groups`); ``avg`` is not —
    averages of averages are wrong under skew — so it is replaced by a
    synthesized ``sum`` + ``count(*)`` pair and recomputed at merge time.

    Returns ``(shard_specs, plans)``: the aggregate list the *shards*
    execute, and one :class:`PartialPlan` per original spec describing how
    the scatter-gather router rebuilds the final column.
    """
    shard_specs: list[AggregateSpec] = []
    by_alias: dict[str, AggregateSpec] = {}

    def ensure(spec: AggregateSpec) -> str:
        existing = by_alias.get(spec.alias)
        if existing is None:
            by_alias[spec.alias] = spec
            shard_specs.append(spec)
        elif existing != spec:
            raise QueryError(
                f"aggregate alias {spec.alias!r} is ambiguous across shards")
        return spec.alias

    plans: list[PartialPlan] = []
    for spec in specs:
        if spec.func == "avg":
            total = ensure(AggregateSpec(
                "sum", spec.column, f"{PARTIAL_PREFIX}sum_{spec.column}"))
            count = ensure(AggregateSpec(
                "count", "*", f"{PARTIAL_PREFIX}count"))
            plans.append(PartialPlan(spec, "ratio", (total, count)))
        else:
            ensure(spec)
            plans.append(PartialPlan(spec, "direct", (spec.alias,)))
    return shard_specs, plans


class StandaloneAggregateOperator(RowOperator):
    """Whole-table aggregation without grouping: emits one row at flush."""

    fill_latency_cycles = 6

    def __init__(self, specs: list[AggregateSpec]):
        super().__init__("aggregation")
        if not specs:
            raise OperatorError("aggregation needs at least one spec")
        self.specs = list(specs)
        self._value_columns = value_columns(self.specs)
        self._acc = Accumulator(len(self._value_columns))
        self._out_schema: Schema | None = None

    def _bind(self, schema: Schema) -> Schema:
        try:
            for spec in self.specs:
                spec.validate(schema)
        except QueryError as exc:
            raise OperatorError(str(exc)) from exc
        aliases = [s.alias for s in self.specs]
        if len(set(aliases)) != len(aliases):
            raise OperatorError(f"duplicate aggregate aliases: {aliases}")
        self._out_schema = grouped_schema(schema, (), self.specs)
        return self._out_schema

    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._out_schema is not None
        batch_accumulate(self._acc, batch, self._value_columns)
        return self._out_schema.empty(0), NO_SOURCE

    def flush(self) -> np.ndarray | None:
        assert self._out_schema is not None
        row = accumulator_rows(self._out_schema, (), self.specs,
                               {b"": self._acc} if self._acc.count else {})
        self.rows_out += len(row)
        return row

    def flush_cycles(self) -> int:
        return 4  # one result row
