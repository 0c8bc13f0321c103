"""Scalar expressions: the one expression language of the engine.

A selection predicate, a SQL ``WHERE`` / ``HAVING`` condition, a select
list expression and an aggregate argument are all trees of the frozen
dataclasses defined here (structural equality is the SQL round-trip
test's oracle):

    :class:`Col`, :class:`Lit`, :class:`Arith` (+ - * /), :class:`Cmp`
    (< <= > >= == !=), :class:`BoolAnd` / :class:`BoolOr` /
    :class:`BoolNot`, :class:`TextMatch` (LIKE / REGEXP, kept untranslated
    so rendering round-trips) and :class:`AggCall` (aggregate function
    over a column or arithmetic expression).

The paper's selection stage (§5.3) is hardwired comparators over tuple
columns combined with AND/OR/NOT: :func:`check_condition` is the rule of
what such a circuit can run (``column op literal``, chars by ``==`` /
``!=`` only) and :func:`eval_mask` is its one vectorized evaluator — the
node's selection operators, the client kernels, the view circuits and
the write path all mask with it.  Conditions compose with ``&``, ``|``
and ``~``.  The relational operators above these nodes live in
:mod:`repro.core.ir`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import QueryError
from .records import Column, Schema

#: Binary arithmetic operators the expression grammar supports.
ARITH_OPS = ("+", "-", "*", "/")

#: Comparison operators, in canonical spelling (``=`` and ``<>`` are
#: normalized by the parser), with the comparator circuit each one is.
_COMPARATORS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}
CMP_OPS = tuple(_COMPARATORS)


class _Condition:
    """Composition sugar for boolean nodes: ``p & q``, ``p | q``, ``~p``."""

    def __and__(self, other: "Expr") -> "BoolAnd":
        return BoolAnd(self, other)

    def __or__(self, other: "Expr") -> "BoolOr":
        return BoolOr(self, other)

    def __invert__(self) -> "BoolNot":
        return BoolNot(self)


@dataclass(frozen=True)
class Col:
    """A column reference, optionally table-qualified (``t.a``)."""

    name: str
    qualifier: Optional[str] = None


@dataclass(frozen=True)
class Lit:
    """An integer, float, string or bytes literal."""

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
class Cmp(_Condition):
    """A comparison; the grammar restricts it to column-vs-expression."""

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(
                f"unknown comparison {self.op!r}; supported: "
                f"{sorted(_COMPARATORS)}")


@dataclass(frozen=True)
class BoolAnd(_Condition):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOr(_Condition):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolNot(_Condition):
    operand: "Expr"


_REGEX_META = set(".^$*+?()[]{}|\\")


def like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into our regex syntax (full match).
    ``%`` and ``_`` match any byte, a newline included — the engine's
    ``.`` does not."""
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append("[\\s\\S]*")
        elif ch == "_":
            out.append("[\\s\\S]")
        elif ch in _REGEX_META:
            out.append("\\" + ch)
        else:
            out.append(ch)
    out.append("$")
    return "".join(out)


@dataclass(frozen=True)
class TextMatch:
    """``column LIKE pattern`` / ``column REGEXP pattern`` — the node's
    regex stage.

    The *raw* pattern is kept so rendering reproduces the original
    clause; :attr:`engine_pattern` is what the regex engine runs.
    """

    column: Col
    pattern: str
    regexp: bool = False

    @property
    def engine_pattern(self) -> str:
        """The pattern in the regex engine's syntax (LIKE translated)."""
        return self.pattern if self.regexp else like_to_regex(self.pattern)


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


# ---------------------------------------------------------------------------
# Typing and vectorized evaluation
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


def items_schema(items, schema: Schema) -> Schema:
    """The output schema of expression projection ``items`` over
    ``schema``: a column keeps its type, arithmetic is typed by
    :func:`expr_dtype` (which also refuses a non-numeric operand)."""
    columns: list[Column] = []
    for expr, name in items:
        if isinstance(expr, Col):
            source = schema.column(expr.name)
            columns.append(Column(name, source.kind, source.width))
        else:
            floating = expr_dtype(expr, schema).kind == "f"
            columns.append(Column(name, "float64" if floating else "int64"))
    return Schema(columns)


def eval_items(items, rows: np.ndarray, schema: Schema,
               out_schema: Schema) -> np.ndarray:
    """Expression projection: every ``(expr, column)`` of ``items``
    evaluated over ``rows`` into a fresh ``out_schema`` array."""
    out = out_schema.empty(len(rows))
    for expr, column in items:
        out[column] = eval_expr(expr, rows, schema)
    return out


def check_condition(cond: Expr, schema: Schema) -> None:
    """Refuse a selection condition the comparator circuits cannot run
    over ``schema``: anything but ``column op literal`` under AND / OR /
    NOT, an unknown column, a char column compared by other than ``==`` /
    ``!=`` or to a number, a numeric column compared to text."""
    if isinstance(cond, (BoolAnd, BoolOr)):
        check_condition(cond.left, schema)
        check_condition(cond.right, schema)
        return
    if isinstance(cond, BoolNot):
        check_condition(cond.operand, schema)
        return
    if not (isinstance(cond, Cmp) and isinstance(cond.left, Col)
            and isinstance(cond.right, Lit)):
        raise QueryError("comparisons must be 'column op literal'")
    name, value = cond.left.name, cond.right.value
    col = schema.column(name)  # raises on unknown column
    if col.kind == "char":
        if cond.op not in ("==", "!="):
            raise QueryError(
                f"char column {name!r} supports only ==/!=, got {cond.op!r}")
        if not isinstance(value, (bytes, str)):
            raise QueryError(
                f"char comparison needs bytes/str, got {type(value).__name__}")
    elif isinstance(value, (bytes, str)):
        raise QueryError(
            f"numeric column {name!r} compared to {type(value).__name__}")


def eval_mask(cond: Expr, rows: np.ndarray) -> np.ndarray:
    """The boolean mask of a checked condition over ``rows``: each
    comparison is one comparator over the column and the literal's own
    value (a ``str`` compared as its bytes)."""
    if isinstance(cond, Cmp):
        value = cond.right.value
        if isinstance(value, str):
            value = value.encode()
        return _COMPARATORS[cond.op](rows[cond.left.name], value)
    if isinstance(cond, BoolAnd):
        return eval_mask(cond.left, rows) & eval_mask(cond.right, rows)
    if isinstance(cond, BoolOr):
        return eval_mask(cond.left, rows) | eval_mask(cond.right, rows)
    if isinstance(cond, BoolNot):
        return ~eval_mask(cond.operand, rows)
    raise QueryError(f"cannot evaluate {type(cond).__name__} as a condition")


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
