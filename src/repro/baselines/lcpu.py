"""LCPU baseline: local buffer cache, processing on the local CPU (§6.1).

"a buffer cache implemented in local (client) memory, where the processing
is done on the local CPU."  The query thread streams the base table from
DRAM (cold cache — the paper stresses LCPU "has to read the data from DRAM
and not from cache, and also write it back", §6.4), applies the operators
in software, and materializes the result back to memory.

LCPU is the ship/hybrid client tail over local memory: the same step
nodes run through the same kernels
(:func:`~repro.core.planner.run_client_kernel`), charged the same
:func:`~repro.core.cost_model.kernel_cost`, between one ``setup``, one
cold read and one result write.  The result is computed for real, the
time comes from :class:`CpuCostModel`.
"""

from __future__ import annotations

import numpy as np

from ..common.records import Schema
from ..core.planner import run_client_kernel
from .cpu_model import CostBreakdown, CpuCostModel
from .sw_ops import software_decrypt


class LcpuBaseline:
    """Local CPU query execution over a local buffer cache."""

    def __init__(self, model: CpuCostModel | None = None):
        self.model = model if model is not None else CpuCostModel()

    def run(self, schema: Schema, data: np.ndarray | bytes, steps=(),
            key: bytes | None = None, nonce: bytes | None = None):
        """Run the client step nodes ``steps`` over ``data`` (decoded
        rows, or with ``key`` an image encrypted at rest, AES-CTR under
        ``key``/``nonce``); returns ``(rows, time_ns, breakdown)``."""
        cpu, cost = self.model, CostBreakdown()
        cost.add("setup", cpu.setup_ns())
        if key is None:
            rows = data
            cost.add("read", cpu.read_ns(len(rows) * schema.row_width))
        else:
            cost.add("read", cpu.read_ns(len(data)))
            cost.add("aes", cpu.aes_ns(len(data)))
            rows = schema.from_bytes(software_decrypt(data, key, nonce))
        for op in steps:
            rows, schema = run_client_kernel(op, rows, schema, cpu, cost)
        cost.add("write", cpu.write_ns(len(rows) * schema.row_width))
        return rows, cost.total_ns, cost
