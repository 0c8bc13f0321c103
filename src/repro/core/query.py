"""Query descriptors: what a client asks Farview to run (§4.2).

A :class:`Query` captures the offloadable fragment of a SQL statement —
projection, selection, regex filter, distinct, group-by/aggregation, and
encryption handling — plus execution hints (vectorization, smart
addressing).  It is validated and lowered once, where it enters, to
:func:`~repro.core.pipeline_compiler.operator_chain`: each hint rides
its step node, and any slice of that chain compiles into an operator
pipeline for a dynamic region.

The paper positions this as the layer a query compiler would target ("The
interface presented here is intended to be used by the query compiler in
Farview, rather than directly by the client", §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import QueryError
from ..common.expr import Expr, TextMatch, check_condition
from ..common.records import Schema
from ..operators.aggregate import AggregateSpec
from ..operators.join import join_output_schema


@dataclass(frozen=True)
class JoinSpec:
    """Small-table inner join (the paper's §7 extension).

    ``build_table`` is a dimension table already resident in disaggregated
    memory; it is read into the region's on-chip hash at query start, and
    the streamed probe tuples are matched against it.  ``payload`` names
    the build columns appended to matching probe tuples.
    """

    build_table: object            # Table handle or raw FTable segment
    build_key: str
    probe_key: str
    payload: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.payload:
            raise QueryError("join payload must name at least one column")


@dataclass(frozen=True)
class Query:
    """An offloaded query fragment.

    Fields mirror the paper's operator classes (§3.1): projection,
    selection (predicate and/or regex), grouping (distinct, group by,
    aggregation), and system support (decrypt input / encrypt output).
    ``predicate`` is a condition and ``regex`` a LIKE / REGEXP term of
    the one expression language (:mod:`repro.common.expr`).

    ``vectorized`` runs the selection vectorized (§5.3);
    ``smart_addressing`` forces (True/False) or lets the planner decide
    (None) between standard projection and smart addressing (§5.2).  A
    hint rides the step it serves, so one without that step is refused.
    """

    projection: Optional[tuple[str, ...]] = None
    predicate: Optional[Expr] = None
    regex: Optional[TextMatch] = None
    join: Optional[JoinSpec] = None
    distinct: bool = False
    distinct_columns: Optional[tuple[str, ...]] = None
    group_by: Optional[tuple[str, ...]] = None
    aggregates: tuple[AggregateSpec, ...] = ()
    decrypt_input: bool = False
    encrypt_output: Optional[tuple[bytes, bytes]] = None  # (key, nonce)
    vectorized: bool = False
    smart_addressing: Optional[bool] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.projection is not None and not self.projection:
            raise QueryError("projection list must not be empty if given")
        if self.group_by is not None and not self.group_by:
            raise QueryError("group_by list must not be empty if given")
        if self.group_by and self.distinct:
            raise QueryError("distinct and group_by are mutually exclusive")
        if self.group_by and not self.aggregates:
            raise QueryError("group_by requires at least one aggregate")
        if self.distinct_columns and not self.distinct:
            raise QueryError("distinct_columns given without distinct=True")
        if self.aggregates and self.distinct:
            raise QueryError("aggregates cannot be combined with distinct")
        if self.smart_addressing and self.vectorized:
            raise QueryError(
                "smart addressing and vectorization are mutually exclusive "
                "execution modes")
        if self.join is not None and self.smart_addressing:
            raise QueryError(
                "small-table joins need the full probe tuple stream; smart "
                "addressing is not applicable")
        if self.vectorized and self.predicate is None:
            raise QueryError("vectorized selection needs a predicate")
        if self.smart_addressing and self.projection is None:
            raise QueryError("smart addressing needs a projection")
        if self.encrypt_output is not None:
            key, nonce = self.encrypt_output
            if len(key) != 16 or len(nonce) != 12:
                raise QueryError(
                    "encrypt_output needs a 16-byte key and 12-byte nonce")

    # -- validation against a schema -------------------------------------------
    def post_join_schema(self, schema: Schema) -> Schema:
        """What the stages after the (optional) join read: the table's
        ``schema`` plus the payload columns."""
        if self.join is None:
            return schema
        return join_output_schema(
            schema, self.join.build_table.schema,  # type: ignore[attr-defined]
            list(self.join.payload))

    def validate(self, schema: Schema) -> None:
        """Check all referenced columns exist and combinations make sense.

        Regex, selection and the probe key read the table's ``schema``;
        every stage after the join (projection, distinct, group-by,
        aggregation) reads the post-join schema.
        """
        if self.join is not None:
            schema.column(self.join.probe_key)
            build_schema = self.join.build_table.schema  # type: ignore[attr-defined]
            build_schema.column(self.join.build_key)
            for name in self.join.payload:
                build_schema.column(name)
        post = self.post_join_schema(schema)
        visible = post.names
        for name in self.projection or ():
            if name not in visible:
                raise QueryError(
                    f"unknown projected column {name!r}; visible: "
                    f"{sorted(visible)}")
        if self.predicate is not None:
            check_condition(self.predicate, schema)
        if self.regex is not None:
            name = self.regex.column.name
            col = schema.column(name)
            if col.kind != "char":
                raise QueryError(
                    f"regex column {name!r} must be char, is {col.kind}")
        for name in self.distinct_columns or ():
            post.column(name)
        for name in self.group_by or ():
            post.column(name)
        for spec in self.aggregates:
            spec.validate(post)
        self._validate_projection_consistency(schema)

    def _validate_projection_consistency(self, schema: Schema) -> None:
        """Columns needed downstream must survive the projection."""
        if self.projection is None:
            return
        projected = set(self.projection)
        for name in self.group_by or ():
            if name not in projected:
                raise QueryError(
                    f"group_by column {name!r} dropped by projection "
                    f"{sorted(projected)}")
        for spec in self.aggregates:
            if spec.func == "count" and spec.column == "*":
                continue
            if spec.column not in projected:
                raise QueryError(
                    f"aggregate column {spec.column!r} dropped by projection")
        for name in self.distinct_columns or ():
            if name not in projected:
                raise QueryError(
                    f"distinct column {name!r} dropped by projection")


def select_star(predicate: Expr, vectorized: bool = False) -> Query:
    """``SELECT * FROM t WHERE <predicate>`` (the Figure 8 query shape)."""
    return Query(predicate=predicate, vectorized=vectorized,
                 label="select_star")


def select_distinct(columns: list[str]) -> Query:
    """``SELECT DISTINCT(cols) FROM t`` (the Figure 9(a) query shape)."""
    return Query(projection=tuple(columns), distinct=True,
                 label="select_distinct")


def group_by_sum(key: str, value: str) -> Query:
    """``SELECT key, SUM(value) FROM t GROUP BY key`` (Figure 9(b,c))."""
    return Query(group_by=(key,), aggregates=(AggregateSpec("sum", value),),
                 label="group_by_sum")
