"""Projection operators: standard and smart addressing (paper §5.2).

*Standard projection* parses whole tuples from the incoming stream and
keeps only the annotated columns.  *Smart addressing* instead issues
multiple, more specific memory requests that fetch only the projected
columns — a win when the tuple is wide and few columns are needed, a loss
when tuples are narrow (many small DRAM requests vs one sequential scan).
Figure 7 explores the crossover; :class:`SmartAddressingPlan` feeds the
node's memory-request generator for that experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Schema
from .base import RowOperator


class ProjectionOperator(RowOperator):
    """Keep only the annotated columns (annotation-driven, §5.2)."""

    def __init__(self, columns: list[str]):
        super().__init__("projection")
        if not columns:
            raise OperatorError("projection needs at least one column")
        if len(set(columns)) != len(columns):
            raise OperatorError(f"duplicate projected columns: {columns}")
        self.columns = list(columns)
        self._out_schema: Schema | None = None

    def _bind(self, schema: Schema) -> Schema:
        self._out_schema = schema.project(self.columns)
        return self._out_schema

    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._out_schema is not None
        out = self._out_schema.empty(len(batch))
        for name in self.columns:
            out[name] = batch[name]
        return out, np.arange(len(batch))


@dataclass(frozen=True)
class ColumnRun:
    """A contiguous byte range of projected columns within a row."""

    offset: int
    width: int


class SmartAddressingPlan:
    """Memory-request plan that fetches only the projected columns.

    Contiguous projected columns coalesce into one request per tuple
    (the Figure 7 experiment projects "three contiguous 8-byte columns",
    i.e. one 24-byte request per 512-byte tuple).
    """

    def __init__(self, schema: Schema, columns: list[str]):
        if not columns:
            raise OperatorError("smart addressing needs at least one column")
        self.schema = schema
        self.columns = list(columns)
        self.out_schema = schema.project(columns)
        self.runs = self._coalesce(schema, columns)

    @staticmethod
    def _coalesce(schema: Schema, columns: list[str]) -> list[ColumnRun]:
        ranges = sorted(schema.byte_range(c) for c in columns)
        runs: list[ColumnRun] = []
        for offset, width in ranges:
            if runs and runs[-1].offset + runs[-1].width == offset:
                last = runs[-1]
                runs[-1] = ColumnRun(last.offset, last.width + width)
            else:
                runs.append(ColumnRun(offset, width))
        return runs

    @property
    def requests_per_tuple(self) -> int:
        return len(self.runs)

    @property
    def bytes_per_tuple(self) -> int:
        return sum(run.width for run in self.runs)

    def total_bytes(self, num_tuples: int) -> int:
        return self.bytes_per_tuple * num_tuples

    def gather(self, image: bytes | memoryview, num_tuples: int) -> np.ndarray:
        """Vectorized gather of the projected columns from a row image:
        what the per-tuple requests over :attr:`runs` fetch, as one
        strided copy per column over a zero-copy view of ``image`` — the
        functional half of smart addressing at memory bandwidth instead
        of a per-tuple Python loop.
        """
        full = self.schema.from_bytes(image)
        if len(full) != num_tuples:
            raise OperatorError(
                f"smart addressing expected {num_tuples} tuples, image "
                f"holds {len(full)}")
        out = self.out_schema.empty(num_tuples)
        for name in self.columns:
            out[name] = full[name]
        return out
