"""Typed relational-algebra IR for the SQL compiler (§4.2's query compiler).

The paper leaves "the query compiler in Farview" as future work; this
module is its middle layer.  :mod:`repro.core.compile` parses SQL text
into the small algebra defined here, resolves it against the catalog,
rewrites it as a tree and cuts it into the engine's operator chains
(:class:`~repro.core.query.Query` descriptors plus client-side kernels).
REMOP's argument — operator placement over remote memory must be decided
on a query *DAG*, not a fixed chain — is why the IR is its own layer.

Two node families, all frozen dataclasses (structural equality is the
round-trip test's oracle):

Scalar expressions
    :class:`Col`, :class:`Lit`, :class:`Arith` (+ - * /), :class:`Cmp`
    (< <= > >= == !=), :class:`BoolAnd` / :class:`BoolOr` /
    :class:`BoolNot`, :class:`TextMatch` (LIKE / REGEXP, kept untranslated
    so rendering round-trips), and :class:`AggCall` (aggregate function
    over a column or arithmetic expression).

Relational operators
    :class:`Scan`, :class:`Join` (the build side is one named table's tree),
    :class:`Filter`, :class:`Aggregate` (grouping + HAVING),
    :class:`Project` (expressions with aliases, or ``*``),
    :class:`Distinct`, :class:`Sort`, :class:`Limit`.

The parser always produces the canonical operator stacking

    Scan -> Join* -> Filter? -> Aggregate? -> Project
         -> Distinct? -> Sort? -> Limit?

and :func:`render_sql` walks that shape back into SQL text, so
``parse(render(dag)) == dag`` holds structurally (the property the
hypothesis round-trip suite pins).  What the binder's rewrites move out
of that stacking — a Filter or Project under a Join or on its ``build``
side — renders as a derived table: the fixture of each rewrite's tests.

Expressions evaluate vectorized over decoded numpy rows
(:func:`eval_expr`), mirroring how
:class:`~repro.operators.selection.Predicate` evaluates — the client-side
lowering uses this for expression projections and aggregate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional, Union

import numpy as np

from ..common.errors import QueryError
from ..common.records import Schema

#: Binary arithmetic operators the expression grammar supports.
ARITH_OPS = ("+", "-", "*", "/")

#: Comparison operators, in canonical spelling (``=`` and ``<>`` are
#: normalized by the parser).
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Col:
    """A column reference, optionally table-qualified (``t.a``)."""

    name: str
    qualifier: Optional[str] = None


@dataclass(frozen=True)
class Lit:
    """An integer, float, or string literal."""

    value: object


@dataclass(frozen=True)
class Arith:
    """Binary arithmetic over numeric operands."""

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class Cmp:
    """A comparison; the grammar restricts it to column-vs-expression."""

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise QueryError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class BoolAnd:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOr:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolNot:
    operand: "Expr"


@dataclass(frozen=True)
class TextMatch:
    """``column LIKE pattern`` / ``column REGEXP pattern``.

    The *raw* pattern is kept (LIKE translation to the regex engine
    happens at lowering) so rendering reproduces the original clause.
    """

    column: Col
    pattern: str
    regexp: bool = False


@dataclass(frozen=True)
class AggCall:
    """``func(arg)`` in a select list; ``arg is None`` means ``COUNT(*)``.

    ``alias`` is the output column name (``""`` lets
    :class:`~repro.operators.aggregate.AggregateSpec` derive one).
    """

    func: str
    arg: Optional["Expr"]
    alias: str = ""


Expr = Union[Col, Lit, Arith, Cmp, BoolAnd, BoolOr, BoolNot, TextMatch,
             AggCall]


# ---------------------------------------------------------------------------
# Relational operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scan:
    """Stream one named table."""

    table: str


@dataclass(frozen=True)
class Join:
    """Inner equi-join of ``child`` against named build table ``table``.

    ``build`` is the build side as a tree: the whole table unless a
    rewrite pushed a Filter or a Project onto it.  Once resolved,
    ``left`` is the probe column (already joined), ``right`` the build
    key.
    """

    child: "Rel"
    table: str
    left: Col
    right: Col
    build: Optional["Rel"] = None

    def __post_init__(self) -> None:
        if self.build is None:
            object.__setattr__(self, "build", Scan(self.table))


@dataclass(frozen=True)
class Filter:
    child: "Rel"
    condition: Expr


@dataclass(frozen=True)
class Aggregate:
    """Grouped (or whole-input) aggregation with an optional HAVING."""

    child: "Rel"
    group_by: tuple[Col, ...]
    aggs: tuple[AggCall, ...]
    having: Optional[Expr] = None


@dataclass(frozen=True)
class Project:
    """The select list: ``(expression, alias)`` pairs, or ``*``.

    A plain :class:`Col` item needs no alias; any other expression must
    carry one (deterministic output naming).  Over an :class:`Aggregate`
    child the items mirror the select list (group columns +
    :class:`AggCall` entries) — the aggregation itself already lives in
    the child node.  Resolution fills in every alias (the output name)
    and expands ``*`` into ``items``; the Projects a rewrite inserts
    leave the alias of a column they pass through empty: it keeps its
    qualified identity for the nodes above.
    """

    child: "Rel"
    items: tuple[tuple[Expr, Optional[str]], ...] = ()
    star: bool = False


@dataclass(frozen=True)
class Distinct:
    child: "Rel"


@dataclass(frozen=True)
class Sort:
    """Deterministic stable sort; keys are ``(column, ascending)``."""

    child: "Rel"
    keys: tuple[tuple[Col, bool], ...]


@dataclass(frozen=True)
class Limit:
    child: "Rel"
    count: int


Rel = Union[Scan, Join, Filter, Aggregate, Project, Distinct, Sort, Limit]


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

#: Per expression class, the fields that hold a sub-expression.
_CHILD_FIELDS = {
    Arith: ("left", "right"), Cmp: ("left", "right"),
    BoolAnd: ("left", "right"), BoolOr: ("left", "right"),
    BoolNot: ("operand",), TextMatch: ("column",), AggCall: ("arg",)}


def _children(expr: Expr) -> list[tuple[str, Expr]]:
    """``(field, sub-expression)`` of one node, left to right."""
    pairs = [(name, getattr(expr, name))
             for name in _CHILD_FIELDS.get(type(expr), ())]
    return [pair for pair in pairs if pair[1] is not None]  # COUNT(*)


def subexprs(expr: Expr):
    """``expr`` and every expression under it, parents first."""
    yield expr
    for _name, child in _children(expr):
        yield from subexprs(child)


def expr_columns(expr: Expr) -> list[Col]:
    """Every column reference in ``expr``, in first-appearance order."""
    return list(dict.fromkeys(
        node for node in subexprs(expr) if isinstance(node, Col)))


def map_cols(expr: Expr, fn) -> Expr:
    """``expr`` with every column reference replaced by ``fn(col)``."""
    if isinstance(expr, Col):
        return fn(expr)
    return replace(expr, **{name: map_cols(child, fn)
                            for name, child in _children(expr)})


def spine(rel: Rel) -> list[Rel]:
    """The nodes from ``rel`` down its ``child`` links to the base Scan."""
    nodes = [rel]
    while not isinstance(nodes[-1], Scan):
        nodes.append(nodes[-1].child)
    return nodes


def conjuncts(condition: Optional[Expr]) -> list[Expr]:
    """Flatten a condition's top-level AND tree into its conjunct list."""
    if condition is None:
        return []
    if isinstance(condition, BoolAnd):
        return conjuncts(condition.left) + conjuncts(condition.right)
    return [condition]


def conjoin(terms: list[Expr]) -> Optional[Expr]:
    """Left-assoc AND of ``terms`` (the parser's associativity)."""
    return reduce(BoolAnd, terms) if terms else None


# ---------------------------------------------------------------------------
# Vectorized expression evaluation (client-side kernels)
# ---------------------------------------------------------------------------

def expr_dtype(expr: Expr, schema) -> np.dtype:
    """The numpy dtype ``expr`` evaluates to over ``schema``.

    Arithmetic follows SQL-ish numeric promotion: any float operand (or a
    division) makes the result ``float64``; otherwise ``int64``.
    ``schema`` is a :class:`Schema` (columns bound by bare name) or
    anything else with a ``dtype_of(col)`` — the resolver's FROM-list
    scope, which types table-qualified references.
    """
    if isinstance(expr, Col):
        if isinstance(schema, Schema):
            return schema.column(expr.name).dtype
        return schema.dtype_of(expr)
    if isinstance(expr, Lit):
        if isinstance(expr.value, float):
            return np.dtype("<f8")
        if isinstance(expr.value, int):
            return np.dtype("<i8")
        raise QueryError(
            f"string literal {expr.value!r} has no arithmetic type")
    if isinstance(expr, Arith):
        left = expr_dtype(expr.left, schema)
        right = expr_dtype(expr.right, schema)
        for side in (left, right):
            if side.kind not in "iuf":
                raise QueryError(
                    f"arithmetic over non-numeric operand ({side})")
        if expr.op == "/" or left.kind == "f" or right.kind == "f":
            return np.dtype("<f8")
        return np.dtype("<i8")
    raise QueryError(f"expression {expr!r} has no column type")


def eval_expr(expr: Expr, rows: np.ndarray, schema: Schema) -> np.ndarray:
    """Evaluate a *bound* numeric expression vectorized over ``rows``."""
    if isinstance(expr, Col):
        return rows[expr.name]
    if isinstance(expr, Lit):
        return np.asarray(expr.value)
    if isinstance(expr, Arith):
        left = eval_expr(expr.left, rows, schema)
        right = eval_expr(expr.right, rows, schema)
        out_dtype = expr_dtype(expr, schema)
        if expr.op == "+":
            result = np.add(left, right)
        elif expr.op == "-":
            result = np.subtract(left, right)
        elif expr.op == "*":
            result = np.multiply(left, right)
        else:
            result = np.true_divide(left, right)
        return result.astype(out_dtype, copy=False)
    raise QueryError(f"cannot evaluate {type(expr).__name__} as a value")


def eval_items(items, rows: np.ndarray, schema: Schema,
               out_schema: Schema) -> np.ndarray:
    """Expression projection: every ``(expr, column)`` of ``items``
    evaluated over ``rows`` into a fresh ``out_schema`` array."""
    out = out_schema.empty(len(rows))
    for expr, column in items:
        out[column] = eval_expr(expr, rows, schema)
    return out


# ---------------------------------------------------------------------------
# SQL rendering (the round-trip direction)
# ---------------------------------------------------------------------------

def _render_literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def render_expr(expr: Expr) -> str:
    """Render an expression; nested operators are fully parenthesized so
    re-parsing reproduces the exact tree regardless of precedence."""
    if isinstance(expr, Col):
        return f"{expr.qualifier}.{expr.name}" if expr.qualifier else expr.name
    if isinstance(expr, Lit):
        return _render_literal(expr.value)
    if isinstance(expr, Arith):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, Cmp):
        op = {"==": "=", "!=": "<>"}.get(expr.op, expr.op)
        return f"{render_expr(expr.left)} {op} {render_expr(expr.right)}"
    if isinstance(expr, BoolAnd):
        return f"({render_expr(expr.left)} AND {render_expr(expr.right)})"
    if isinstance(expr, BoolOr):
        return f"({render_expr(expr.left)} OR {render_expr(expr.right)})"
    if isinstance(expr, BoolNot):
        return f"(NOT {render_expr(expr.operand)})"
    if isinstance(expr, TextMatch):
        keyword = "REGEXP" if expr.regexp else "LIKE"
        return (f"{render_expr(expr.column)} {keyword} "
                f"{_render_literal(expr.pattern)}")
    if isinstance(expr, AggCall):
        arg = "*" if expr.arg is None else render_expr(expr.arg)
        text = f"{expr.func.upper()}({arg})"
        if expr.alias:
            text += f" AS {expr.alias}"
        return text
    raise QueryError(f"cannot render {type(expr).__name__}")


def _peel(rel: Rel, kind) -> tuple[Optional[Rel], Rel]:
    """``(rel, its child)`` when ``rel`` is a ``kind``, else ``(None, rel)``."""
    return (rel, rel.child) if isinstance(rel, kind) else (None, rel)


def _render_source(rel: Rel) -> str:
    """A FROM-list entry: a table name, or a derived table."""
    return rel.table if isinstance(rel, Scan) else f"({render_sql(rel)})"


def _render_select_list(project: Optional[Project],
                        aggregate: Optional[Aggregate]) -> str:
    if project is None or project.star:
        return "*"
    calls = {agg.alias: agg for agg in aggregate.aggs} if aggregate else {}
    parts = []
    for expr, alias in project.items:
        if isinstance(expr, Col) and expr.qualifier is None:
            expr = calls.get(expr.name, expr)   # a resolved aggregate item
        text = render_expr(expr)
        if alias and not isinstance(expr, AggCall) and not (
                isinstance(expr, Col) and expr.name == alias):
            text += f" AS {alias}"
        parts.append(text)
    return ", ".join(parts)


def render_sql(rel: Rel) -> str:
    """Render a DAG as one SELECT statement.

    The canonical stacking renders to text that re-parses to the same
    tree.  Whatever a rewrite moved out of it — a Filter or Project
    under a Join, a Join's ``build`` subtree — renders as a parenthesised
    derived table: readable, not re-parseable.
    """
    limit, rel = _peel(rel, Limit)
    sort, rel = _peel(rel, Sort)
    distinct, rel = _peel(rel, Distinct)
    project, rel = _peel(rel, Project)
    aggregate, rel = _peel(rel, Aggregate)
    where, rel = _peel(rel, Filter)
    joins: list[Join] = []
    while isinstance(rel, Join):
        joins.append(rel)
        rel = rel.child
    joins.reverse()

    sql = ["SELECT"]
    if distinct is not None:
        sql.append("DISTINCT")
    sql.append(_render_select_list(project, aggregate))
    sql.append(f"FROM {_render_source(rel)}")
    for join in joins:
        sql.append(f"JOIN {_render_source(join.build)} ON "
                   f"{render_expr(join.left)} = {render_expr(join.right)}")
    if where is not None:
        sql.append(f"WHERE {render_expr(where.condition)}")
    if aggregate is not None and aggregate.group_by:
        sql.append("GROUP BY " + ", ".join(render_expr(c)
                                           for c in aggregate.group_by))
    if aggregate is not None and aggregate.having is not None:
        sql.append(f"HAVING {render_expr(aggregate.having)}")
    if sort is not None:
        keys = ", ".join(render_expr(col) + ("" if ascending else " DESC")
                         for col, ascending in sort.keys)
        sql.append(f"ORDER BY {keys}")
    if limit is not None:
        sql.append(f"LIMIT {limit.count}")
    return " ".join(sql)
