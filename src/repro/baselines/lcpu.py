"""LCPU baseline: local buffer cache, processing on the local CPU (§6.1).

"a buffer cache implemented in local (client) memory, where the processing
is done on the local CPU."  The query thread streams the base table from
DRAM (cold cache — the paper stresses LCPU "has to read the data from DRAM
and not from cache, and also write it back", §6.4), applies the operator
in software, and materializes the result back to memory.

Every method returns ``(result, time_ns, breakdown)`` — the result is
computed for real, the time comes from :class:`CpuCostModel`.  The one
thing a charge reads off a grouping kernel is whether the modelled hash
map grew (``map_resizes > 0``, a closed form of the distinct-key count).
"""

from __future__ import annotations

import numpy as np

from ..common.expr import Expr
from ..common.records import Schema
from ..operators.aggregate import AggregateSpec
from .cpu_model import CostBreakdown, CpuCostModel
from .sw_ops import (
    software_decrypt,
    software_distinct,
    software_groupby,
    software_regex,
    software_select,
)


class LcpuBaseline:
    """Local CPU query execution over a local buffer cache."""

    def __init__(self, model: CpuCostModel | None = None):
        self.model = model if model is not None else CpuCostModel()

    # -- selection (Figure 8) -----------------------------------------------------
    def select(self, schema: Schema, rows: np.ndarray,
               predicate: Expr):
        table_bytes = len(rows) * schema.row_width
        result = software_select(rows, predicate)
        out_bytes = len(result) * schema.row_width
        cost = CostBreakdown()
        cost.add("setup", self.model.setup_ns())
        cost.add("read", self.model.read_ns(table_bytes))
        cost.add("predicate", self.model.select_ns(len(rows)))
        cost.add("write", self.model.write_ns(out_bytes))
        return result, cost.total_ns, cost

    # -- distinct (Figure 9a) ------------------------------------------------------
    def distinct(self, schema: Schema, rows: np.ndarray,
                 key_columns: list[str]):
        table_bytes = len(rows) * schema.row_width
        output = software_distinct(rows, schema, key_columns)
        out_bytes = len(output.rows) * schema.row_width
        cost = CostBreakdown()
        cost.add("setup", self.model.setup_ns())
        cost.add("read", self.model.read_ns(table_bytes))
        cost.add("hash", self.model.hash_ns(len(rows),
                                            growing=output.map_resizes > 0))
        cost.add("write", self.model.write_ns(out_bytes))
        return output.rows, cost.total_ns, cost

    # -- group by (Figure 9b,c) -------------------------------------------------------
    def group_by(self, schema: Schema, rows: np.ndarray,
                 key_columns: list[str], aggregates: list[AggregateSpec]):
        table_bytes = len(rows) * schema.row_width
        output = software_groupby(rows, schema, key_columns, aggregates)
        out_bytes = len(output.rows) * output.rows.dtype.itemsize
        cost = CostBreakdown()
        cost.add("setup", self.model.setup_ns())
        cost.add("read", self.model.read_ns(table_bytes))
        cost.add("hash", self.model.hash_ns(len(rows),
                                            growing=output.map_resizes > 0))
        cost.add("aggregate", self.model.aggregate_update_ns(len(rows)))
        cost.add("write", self.model.write_ns(out_bytes))
        return output.rows, cost.total_ns, cost

    # -- regex (Figure 10) ----------------------------------------------------------------
    def regex(self, schema: Schema, rows: np.ndarray, column: str,
              pattern: str):
        table_bytes = len(rows) * schema.row_width
        result = software_regex(rows, column, pattern)
        out_bytes = len(result) * schema.row_width
        string_bytes = len(rows) * schema.column(column).width
        cost = CostBreakdown()
        cost.add("setup", self.model.setup_ns())
        cost.add("read", self.model.read_ns(table_bytes))
        cost.add("re2", self.model.regex_ns(string_bytes))
        cost.add("write", self.model.write_ns(out_bytes))
        return result, cost.total_ns, cost

    # -- decryption (Figure 11a) --------------------------------------------------------------
    def decrypt(self, schema: Schema, image: bytes, key: bytes,
                nonce: bytes):
        plain = software_decrypt(image, key, nonce)
        rows = schema.from_bytes(plain)
        cost = CostBreakdown()
        cost.add("setup", self.model.setup_ns())
        cost.add("read", self.model.read_ns(len(image)))
        cost.add("aes", self.model.aes_ns(len(image)))
        cost.add("write", self.model.write_ns(len(image)))
        return rows, cost.total_ns, cost
