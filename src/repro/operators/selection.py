"""Predicate selection operators, scalar and vectorized (paper §5.3).

Predicates are hardwired matching circuits in the FPGA: column
comparisons combined with AND/OR/NOT, which may span several tuple
columns ("It also permits complex predicates defined over different
tuple columns", §5.3).  A predicate is a condition of the one expression
language (:mod:`repro.common.expr`); :func:`Compare`, :data:`And`,
:data:`Or` and :data:`Not` build its nodes, ``&`` / ``|`` / ``~``
compose them, and the operators here check it with
:func:`~repro.common.expr.check_condition` and mask with
:func:`~repro.common.expr.eval_mask`.

The *vectorized* variant has identical semantics; it differs in the timing
model (parallel selection lanes fed from multiple memory channels, §5.3
"Vectorization"), which the Farview node accounts for via
:attr:`VectorizedSelectionOperator.lanes`.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError, QueryError
from ..common.expr import (BoolAnd, BoolNot, BoolOr, Cmp, Col, Expr, Lit,
                           check_condition, eval_mask)
from ..common.records import Schema, take_rows
from .base import RowOperator

#: ``And(p, q)``, ``Or(p, q)``, ``Not(p)``: the boolean condition nodes.
And, Or, Not = BoolAnd, BoolOr, BoolNot


def Compare(column: str, op: str, value: object) -> Cmp:
    """``column <op> constant`` — one hardwired comparator circuit."""
    return Cmp(op, Col(column), Lit(value))


class SelectionOperator(RowOperator):
    """Filter tuples by a predicate (maps to the SQL WHERE clause)."""

    def __init__(self, predicate: Expr, name: str = "selection"):
        super().__init__(name)
        self.predicate = predicate

    def _bind(self, schema: Schema) -> Schema:
        try:
            check_condition(self.predicate, schema)
        except QueryError as exc:
            raise OperatorError(str(exc)) from exc
        return schema

    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        picked = np.flatnonzero(eval_mask(self.predicate, batch))
        return take_rows(batch, picked), picked


class VectorizedSelectionOperator(SelectionOperator):
    """Selection with parallel lanes fed from striped memory channels.

    Semantically identical to :class:`SelectionOperator`; the Farview node
    uses :attr:`lanes` to model the higher ingest bandwidth of the
    vectorized processing model (§5.3: "The number of parallel operators is
    chosen based on the number of memory channels and the tuple width").
    """

    def __init__(self, predicate: Expr, lanes: int):
        super().__init__(predicate, name="selection_vec")
        if lanes <= 0:
            raise OperatorError(f"lanes must be positive: {lanes}")
        self.lanes = lanes

    @classmethod
    def for_configuration(cls, predicate: Expr, memory_channels: int,
                          tuple_width: int, datapath_bytes: int = 64
                          ) -> "VectorizedSelectionOperator":
        """Choose the lane count from channels and tuple width (§5.3)."""
        if tuple_width <= 0:
            raise OperatorError(f"tuple width must be positive: {tuple_width}")
        lanes_by_width = max(1, (memory_channels * datapath_bytes) // tuple_width)
        return cls(predicate, lanes=max(memory_channels, min(lanes_by_width, 16)))
