"""Regular-expression matching operator (paper §5.3).

"data is retrieved from the remote node only when it matches the given
regular expression.  The operator implements regular expression matching
using multiple parallel engines ... the performance of the operator is
dominated by the length of the string and does not depend on the
complexity of the regular expression."

Functionally the operator filters tuples whose char column matches the
pattern (search semantics, like RE2 partial match).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Schema, take_rows
from .base import RowOperator
from .regex_engine import CompiledRegex


class RegexMatchOperator(RowOperator):
    """Filter tuples whose ``column`` matches ``pattern``."""

    fill_latency_cycles = 16  # deep-pipelined engines

    def __init__(self, column: str, pattern: str):
        super().__init__("regex")
        self.column = column
        self.regex = CompiledRegex(pattern)

    def _bind(self, schema: Schema) -> Schema:
        col = schema.column(self.column)
        if col.kind != "char":
            raise OperatorError(
                f"regex needs a char column, {self.column!r} is {col.kind}")
        return schema

    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        picked = np.flatnonzero(self.regex.search_column(batch[self.column]))
        return take_rows(batch, picked), picked
