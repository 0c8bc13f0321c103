"""Typed relational-algebra IR for the SQL compiler (§4.2's query compiler).

The paper leaves "the query compiler in Farview" as future work; this
module is its middle layer.  :mod:`repro.core.compile` parses SQL text
into the small algebra defined here, resolves it against the catalog,
rewrites it as a tree and cuts it into the engine's operator chains
(:class:`~repro.core.query.Query` descriptors plus client-side kernels).
REMOP's argument — operator placement over remote memory must be decided
on a query *DAG*, not a fixed chain — is why the IR is its own layer.

The relational operators are frozen dataclasses (structural equality is
the round-trip test's oracle) over the scalar expressions of
:mod:`repro.common.expr` — the engine's one expression language, which
this module re-exports:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union

# Re-exported: the expression nodes are the IR's scalar vocabulary.
from ..common.expr import (AggCall, Arith, BoolAnd, BoolNot, BoolOr, Cmp,
                           Col, Expr, Lit, TextMatch, expr_columns,
                           expr_dtype, map_cols, render_expr, subexprs)


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
