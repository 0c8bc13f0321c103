"""Predicate selection operators, scalar and vectorized (paper §5.3).

Predicates are hardwired matching circuits in the FPGA; we model them as a
small expression tree (column comparisons combined with AND/OR/NOT)
evaluated vectorized over tuple batches.  Complex predicates over multiple
columns are supported ("It also permits complex predicates defined over
different tuple columns", §5.3).

The *vectorized* variant has identical semantics; it differs in the timing
model (parallel selection lanes fed from multiple memory channels, §5.3
"Vectorization"), which the Farview node accounts for via
:attr:`VectorizedSelectionOperator.lanes`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..common.errors import OperatorError, QueryError
from ..common.records import Schema
from .base import RowOperator

_COMPARATORS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


class Predicate(abc.ABC):
    """A boolean expression over tuple columns."""

    @abc.abstractmethod
    def validate(self, schema: Schema) -> None:
        """Raise :class:`QueryError` if the predicate doesn't fit the schema."""

    @abc.abstractmethod
    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; returns a boolean mask."""

    @abc.abstractmethod
    def columns(self) -> set[str]:
        """All column names the predicate touches."""

    # Composition sugar: (p & q), (p | q), ~p
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class Compare(Predicate):
    """column <op> constant — one hardwired comparator circuit."""

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(
                f"unknown comparison {self.op!r}; supported: "
                f"{sorted(_COMPARATORS)}")

    def validate(self, schema: Schema) -> None:
        col = schema.column(self.column)  # raises on unknown column
        if col.kind == "char":
            if self.op not in ("==", "!="):
                raise QueryError(
                    f"char column {self.column!r} supports only ==/!=, "
                    f"got {self.op!r}")
            if not isinstance(self.value, (bytes, str)):
                raise QueryError(
                    f"char comparison needs bytes/str, got {type(self.value).__name__}")
        else:
            if isinstance(self.value, (bytes, str)):
                raise QueryError(
                    f"numeric column {self.column!r} compared to "
                    f"{type(self.value).__name__}")

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        value = self.value
        if isinstance(value, str):
            value = value.encode()
        return _COMPARATORS[self.op](batch[self.column], value)

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def validate(self, schema: Schema) -> None:
        self.left.validate(schema)
        self.right.validate(schema)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        return self.left.evaluate(batch) & self.right.evaluate(batch)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def validate(self, schema: Schema) -> None:
        self.left.validate(schema)
        self.right.validate(schema)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        return self.left.evaluate(batch) | self.right.evaluate(batch)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def validate(self, schema: Schema) -> None:
        self.inner.validate(schema)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        return ~self.inner.evaluate(batch)

    def columns(self) -> set[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.inner!r})"


class SelectionOperator(RowOperator):
    """Filter tuples by a predicate (maps to the SQL WHERE clause)."""

    def __init__(self, predicate: Predicate, name: str = "selection"):
        super().__init__(name)
        self.predicate = predicate

    def _bind(self, schema: Schema) -> Schema:
        try:
            self.predicate.validate(schema)
        except QueryError as exc:
            raise OperatorError(str(exc)) from exc
        return schema

    def _process(self, batch: np.ndarray) -> np.ndarray:
        mask = self.predicate.evaluate(batch)
        return batch[mask]

class VectorizedSelectionOperator(SelectionOperator):
    """Selection with parallel lanes fed from striped memory channels.

    Semantically identical to :class:`SelectionOperator`; the Farview node
    uses :attr:`lanes` to model the higher ingest bandwidth of the
    vectorized processing model (§5.3: "The number of parallel operators is
    chosen based on the number of memory channels and the tuple width").
    """

    def __init__(self, predicate: Predicate, lanes: int):
        super().__init__(predicate, name="selection_vec")
        if lanes <= 0:
            raise OperatorError(f"lanes must be positive: {lanes}")
        self.lanes = lanes

    @classmethod
    def for_configuration(cls, predicate: Predicate, memory_channels: int,
                          tuple_width: int, datapath_bytes: int = 64
                          ) -> "VectorizedSelectionOperator":
        """Choose the lane count from channels and tuple width (§5.3)."""
        if tuple_width <= 0:
            raise OperatorError(f"tuple width must be positive: {tuple_width}")
        lanes_by_width = max(1, (memory_channels * datapath_bytes) // tuple_width)
        return cls(predicate, lanes=max(memory_channels, min(lanes_by_width, 16)))
