"""Serial reference model for compiled SQL — the differential oracle.

``execute_model`` re-runs a SELECT statement on plain numpy arrays with
naive serial kernels: python row loops, dict-based hash joins, stdlib
``re`` for LIKE/REGEXP, first-seen dict grouping, and python's stable
sorts.  It shares the parser and ``resolve`` (what a statement means:
which table owns each column, what each output column is called),
nothing else: :func:`interpret` walks the *resolved, un-rewritten* tree
node by node — every join under table-qualified column names, WHERE
where the text put it — so no pushdown, pruning, key canonicalisation or
offload decision of the binder is on this side of a sha256 comparison.
No simulator, no operator chains, no cluster scatter/gather, no
``sw_ops`` kernels.  The same walk runs a *rewritten* tree, which is how
each rewrite's ``run(rewrite(rel)) == run(rel)`` property is checked.

Bit-exactness contract (what makes a sha comparison meaningful):

* Grouped sums accumulate sequentially in global row order as python
  floats — IEEE-identical to the engine's per-group sequential
  accumulator.
* Ungrouped sums use ``np.sum`` (pairwise summation), matching the
  engine's whole-column batch accumulation.
* Sort is a stable last-to-first multi-key pass; python's
  ``reverse=True`` preserves the order of equal keys, matching the
  engine's negated-rank stable argsort.  Sort keys must be numeric
  (char-column ordering is not modeled).
"""

from __future__ import annotations

import hashlib
import operator
import re
from types import SimpleNamespace

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Column, Schema
from ..core.compile import ParsedWrite, parse_sql, resolve
from ..core.ir import (Aggregate, Arith, BoolAnd, BoolNot, BoolOr, Cmp, Col,
                       Distinct, Filter, Join, Limit, Lit, Project, Rel, Scan,
                       Sort, TextMatch)
from ..operators.aggregate import AggregateSpec

__all__ = ["execute_model", "interpret", "model_sha256"]


class _Catalog:
    """Catalog stand-in: ``resolve`` asks a handle for its schema only."""

    def __init__(self, tables: dict):
        self._tables = tables

    def lookup(self, name: str) -> SimpleNamespace:
        if name not in self._tables:
            raise OperatorError(
                f"reference model has no table {name!r}; known: "
                f"{sorted(self._tables)}")
        return SimpleNamespace(name=name, schema=self._tables[name][0])


# -- scalar evaluation ---------------------------------------------------------

def _field(col: Col) -> str:
    """A column's name in the model's intermediates: table-qualified
    for a table column, bare for a derived one."""
    return f"{col.qualifier}.{col.name}" if col.qualifier else col.name


def _like(pattern: str) -> str:
    """LIKE as a stdlib regex: ``%`` / ``_`` match any byte, newline
    included; the whole value must match."""
    parts = {"%": "(?s:.*)", "_": "(?s:.)"}
    return "^" + "".join(parts.get(ch, re.escape(ch)) for ch in pattern) + "$"


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _truth(cond, row) -> bool:
    """One WHERE / HAVING condition on one row."""
    if isinstance(cond, Cmp):
        value = cond.right.value
        if isinstance(value, str):
            value = value.encode()
        return bool(_COMPARE[cond.op](row[_field(cond.left)], value))
    if isinstance(cond, TextMatch):
        pattern = cond.pattern if cond.regexp else _like(cond.pattern)
        return re.search(pattern.encode(),
                         bytes(row[_field(cond.column)])) is not None
    if isinstance(cond, BoolAnd):
        return _truth(cond.left, row) and _truth(cond.right, row)
    if isinstance(cond, BoolOr):
        return _truth(cond.left, row) or _truth(cond.right, row)
    if isinstance(cond, BoolNot):
        return not _truth(cond.operand, row)
    raise OperatorError(f"unknown condition node {type(cond).__name__}")


def _eval_scalar(expr, row):
    """Evaluate one expression on one row with python arithmetic.

    Mirrors the engine's vectorized promotion rule: ``/`` always in
    float64, other operators in float when either side is float, else
    exact integers.
    """
    if isinstance(expr, Col):
        return row[_field(expr)]
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Arith):
        left = _eval_scalar(expr.left, row)
        right = _eval_scalar(expr.right, row)
        if expr.op == "/":
            return float(left) / float(right)
        if any(isinstance(v, (float, np.floating)) for v in (left, right)):
            return _ARITH[expr.op](float(left), float(right))
        return _ARITH[expr.op](int(left), int(right))
    raise OperatorError(f"unknown expression node {type(expr).__name__}")


def _mask(rows: np.ndarray, keep: list) -> np.ndarray:
    return rows[np.asarray(keep, dtype=bool)] if len(rows) else rows


# -- naive relational kernels --------------------------------------------------

def _is_float(expr, schema: Schema) -> bool:
    """Does ``expr`` evaluate in float64?  (``/`` always does.)"""
    if isinstance(expr, Col):
        return schema.column(_field(expr)).kind == "float64"
    if isinstance(expr, Lit):
        return isinstance(expr.value, float)
    return (expr.op == "/" or _is_float(expr.left, schema)
            or _is_float(expr.right, schema))


def _project(schema: Schema, rows: np.ndarray,
             items: list) -> tuple[Schema, np.ndarray]:
    """One output column per ``(expression, name)``: a column is copied
    under its new name, anything else evaluated row by row."""
    columns = []
    for expr, name in items:
        if isinstance(expr, Col):
            source = schema.column(_field(expr))
            columns.append((Column(name, source.kind, source.width),
                            rows[_field(expr)]))
        else:
            kind = "float64" if _is_float(expr, schema) else "int64"
            columns.append((Column(name, kind), [
                _eval_scalar(expr, rows[i]) for i in range(len(rows))]))
    out_schema = Schema([column for column, _values in columns])
    out = out_schema.empty(len(rows))
    for column, values in columns:
        out[column.name] = values
    return out_schema, out


def _dict_join(schema: Schema, rows: np.ndarray, build_schema: Schema,
               build_rows: np.ndarray, build_key: str,
               probe_key: str) -> tuple[Schema, np.ndarray]:
    """Inner join through a python dict keyed on the serialized key image;
    unique build keys, probe-order output, every column of both sides
    (their names are table-qualified: nothing collides)."""
    table: dict[bytes, int] = {}
    bkeys = build_rows[build_key]
    for i in range(len(build_rows)):
        key = bkeys[i].tobytes()
        if key in table:
            raise OperatorError(
                f"duplicate build key at row {i}: the small table must "
                f"have unique join keys")
        table[key] = i
    probe_idx: list[int] = []
    build_idx: list[int] = []
    pkeys = rows[probe_key]
    for i in range(len(rows)):
        j = table.get(pkeys[i].tobytes())
        if j is not None:
            probe_idx.append(i)
            build_idx.append(j)
    out_schema = Schema(list(schema.columns) + list(build_schema.columns))
    out = out_schema.empty(len(probe_idx))
    for name in schema.names:
        out[name] = rows[name][probe_idx]
    for name in build_schema.names:
        out[name] = build_rows[name][build_idx]
    return out_schema, out


def _distinct(schema: Schema, rows: np.ndarray,
              key_columns: list[str]) -> np.ndarray:
    seen: set[tuple] = set()
    keep: list[bool] = []
    for i in range(len(rows)):
        key = tuple(rows[name][i].tobytes() for name in key_columns)
        keep.append(key not in seen)
        seen.add(key)
    return _mask(rows, keep)


def _aggregate(schema: Schema, rows: np.ndarray, group_by: list[str],
               aggregates: list) -> tuple[Schema, np.ndarray]:
    if not group_by:
        out_schema = Schema([s.output_column(schema) for s in aggregates])
        if len(rows) == 0:
            return out_schema, out_schema.empty(0)
        out = out_schema.empty(1)
        for spec in aggregates:
            if spec.func == "count":
                out[spec.alias][0] = len(rows)
                continue
            col = rows[spec.column]
            if spec.func == "sum":
                out[spec.alias][0] = float(np.sum(col))
            elif spec.func == "avg":
                out[spec.alias][0] = float(np.sum(col)) / len(rows)
            elif spec.func == "min":
                out[spec.alias][0] = col.min()
            else:
                out[spec.alias][0] = col.max()
        return out_schema, out
    out_schema = Schema([schema.column(k) for k in group_by]
                        + [s.output_column(schema) for s in aggregates])
    groups: dict[tuple, list[int]] = {}         # first-seen order
    for i in range(len(rows)):
        key = tuple(rows[name][i].tobytes() for name in group_by)
        groups.setdefault(key, []).append(i)
    out = out_schema.empty(len(groups))
    for g, members in enumerate(groups.values()):
        for name in group_by:
            out[name][g] = rows[name][members[0]]
        for spec in aggregates:
            if spec.func == "count":
                out[spec.alias][g] = len(members)
                continue
            values = [rows[spec.column][i].item() for i in members]
            if spec.func in ("sum", "avg"):
                total = 0.0
                for v in values:        # sequential, in global row order
                    total += float(v)
                out[spec.alias][g] = (total / len(members)
                                      if spec.func == "avg" else total)
            else:
                # First of equal (or NaN-incomparable) values wins; an
                # int64 compares as a Python int, exactly.
                out[spec.alias][g] = (min(values) if spec.func == "min"
                                      else max(values))
    return out_schema, out


def _sort(rows: np.ndarray, keys: list[tuple[str, bool]]) -> np.ndarray:
    idx = list(range(len(rows)))
    for name, ascending in reversed(keys):
        col = rows[name]
        idx.sort(key=lambda i: col[i], reverse=not ascending)
    return rows[idx]


def _aggregate_node(rel: Aggregate, schema: Schema, rows: np.ndarray
                    ) -> tuple[Schema, np.ndarray]:
    """GROUP BY / aggregate / HAVING: an expression argument is first
    computed into a scratch column the aggregate then reads."""
    specs = []
    computed = []
    for i, call in enumerate(rel.aggs):
        if call.arg is None or isinstance(call.arg, Col):
            column = "*" if call.arg is None else _field(call.arg)
        else:
            column = f"arg{i}"
            computed.append((call.arg, column))
        specs.append(AggregateSpec(call.func, column, call.alias))
    if computed:
        schema, rows = _project(
            schema, rows, [(Col(n), n) for n in schema.names] + computed)
    schema, rows = _aggregate(schema, rows,
                              [_field(col) for col in rel.group_by], specs)
    if rel.having is not None:
        rows = _mask(rows, [_truth(rel.having, rows[i])
                            for i in range(len(rows))])
    return schema, rows


def interpret(rel: Rel, tables: dict) -> tuple[Schema, np.ndarray]:
    """Run a resolved tree — rewritten or not — node by node against
    ``tables`` (``{name: (schema, rows)}``)."""
    if isinstance(rel, Scan):
        schema, rows = tables[rel.table]
        return _project(schema, rows, [
            (Col(name), f"{rel.table}.{name}") for name in schema.names])
    schema, rows = interpret(rel.child, tables)
    if isinstance(rel, Join):
        build_schema, build_rows = interpret(rel.build, tables)
        return _dict_join(schema, rows, build_schema, build_rows,
                          _field(rel.right), _field(rel.left))
    if isinstance(rel, Filter):
        return schema, _mask(rows, [_truth(rel.condition, rows[i])
                                    for i in range(len(rows))])
    if isinstance(rel, Aggregate):
        return _aggregate_node(rel, schema, rows)
    if isinstance(rel, Project):
        return _project(schema, rows, [
            (expr, alias or _field(expr)) for expr, alias in rel.items])
    if isinstance(rel, Distinct):
        return schema, _distinct(schema, rows, list(schema.names))
    if isinstance(rel, Sort):
        return schema, _sort(rows, [(_field(col), ascending)
                                    for col, ascending in rel.keys])
    if isinstance(rel, Limit):
        return schema, rows[:rel.count]
    raise OperatorError(f"unknown IR node {type(rel).__name__}")


# -- entry points --------------------------------------------------------------

def execute_model(statement: str, tables: dict
                  ) -> tuple[Schema, np.ndarray]:
    """Run one SELECT against ``tables`` (``{name: (schema, rows)}``).

    Returns ``(schema, rows)`` — the exact bytes the engine must
    produce on every placement and cluster size.
    """
    parsed = parse_sql(statement)
    if isinstance(parsed, ParsedWrite):
        raise OperatorError("the reference model only executes SELECT")
    return interpret(resolve(parsed.ir, _Catalog(tables)), tables)


def model_sha256(statement: str, tables: dict) -> str:
    """sha256 of the model's canonical result bytes for ``statement``."""
    schema, rows = execute_model(statement, tables)
    return hashlib.sha256(schema.to_bytes(rows)).hexdigest()
