"""RCPU baseline: remote buffer cache behind a CPU + commercial NIC (§6.1).

"a remote buffer cache implemented on the memory of a different machine
and reachable through a commercial NIC via two-sided RDMA operations ...
This latter configuration resembles what is being done today for storage,
where part of the processing is moved to a CPU located in the storage
server."

The remote CPU runs the same software operators as LCPU (it owns the
buffer cache in its DRAM), then the *result* travels to the client over
the commercial NIC.  The two-sided protocol adds software RPC overhead on
both ends.  RCPU is therefore LCPU plus network shipping — matching the
paper's observation that "in all the cases it is slower than LCPU" (§6.4).
"""

from __future__ import annotations

import numpy as np

from ..common import calibration as cal
from ..common.config import RnicConfig
from ..common.expr import Expr
from ..common.records import Schema
from ..operators.aggregate import AggregateSpec
from .cpu_model import CostBreakdown, CpuCostModel
from .lcpu import LcpuBaseline


class RcpuBaseline:
    """Remote-CPU query execution: LCPU semantics + result shipping."""

    def __init__(self, model: CpuCostModel | None = None,
                 nic: RnicConfig | None = None):
        self.model = model if model is not None else CpuCostModel()
        self.nic = nic if nic is not None else RnicConfig()
        self._local = LcpuBaseline(self.model)

    # -- network shipping ---------------------------------------------------------
    def _ship_ns(self, nbytes: int) -> float:
        """Result transfer over the commercial NIC (two-sided send)."""
        if nbytes == 0:
            return self.nic.one_way_latency_ns
        packets = max(1, -(-nbytes // self.nic.packet_size))
        wire = (nbytes + packets * self.nic.header_overhead) / self.nic.line_rate
        pcie = nbytes / self.nic.pcie_bandwidth
        return (max(wire, pcie, packets * cal.RNIC_PIPELINED_PER_PACKET_NS)
                + self.nic.one_way_latency_ns + self.nic.pcie_latency_ns)

    def _wrap(self, result, local_ns: float, cost: CostBreakdown,
              shipped_bytes: int):
        cost.add("two_sided_rpc", self.model.two_sided_ns())
        cost.add("ship_result", self._ship_ns(shipped_bytes))
        return result, cost.total_ns, cost

    # -- operators (same signatures as LCPU) --------------------------------------------
    def select(self, schema: Schema, rows: np.ndarray, predicate: Expr):
        result, local_ns, cost = self._local.select(schema, rows, predicate)
        return self._wrap(result, local_ns, cost,
                          len(result) * schema.row_width)

    def distinct(self, schema: Schema, rows: np.ndarray,
                 key_columns: list[str]):
        result, local_ns, cost = self._local.distinct(schema, rows,
                                                      key_columns)
        return self._wrap(result, local_ns, cost,
                          len(result) * schema.row_width)

    def group_by(self, schema: Schema, rows: np.ndarray,
                 key_columns: list[str], aggregates: list[AggregateSpec]):
        result, local_ns, cost = self._local.group_by(schema, rows,
                                                      key_columns, aggregates)
        return self._wrap(result, local_ns, cost,
                          len(result) * result.dtype.itemsize)

    def regex(self, schema: Schema, rows: np.ndarray, column: str,
              pattern: str):
        result, local_ns, cost = self._local.regex(schema, rows, column,
                                                   pattern)
        return self._wrap(result, local_ns, cost,
                          len(result) * schema.row_width)

    def decrypt(self, schema: Schema, image: bytes, key: bytes,
                nonce: bytes):
        result, local_ns, cost = self._local.decrypt(schema, image, key,
                                                     nonce)
        return self._wrap(result, local_ns, cost, len(image))
