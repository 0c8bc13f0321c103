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

from ..common import calibration as cal
from ..common.config import RnicConfig
from .cpu_model import CpuCostModel
from .lcpu import LcpuBaseline


class RcpuBaseline:
    """Remote-CPU query execution: LCPU semantics + result shipping."""

    def __init__(self, model: CpuCostModel | None = None):
        self.model = model if model is not None else CpuCostModel()
        self.nic = RnicConfig()
        self._local = LcpuBaseline(self.model)

    def _ship_ns(self, nbytes: int) -> float:
        """Result transfer over the commercial NIC (two-sided send)."""
        if nbytes == 0:
            return self.nic.one_way_latency_ns
        packets = max(1, -(-nbytes // self.nic.packet_size))
        wire = (nbytes + packets * self.nic.header_overhead) / self.nic.line_rate
        pcie = nbytes / self.nic.pcie_bandwidth
        return (max(wire, pcie, packets * cal.RNIC_PIPELINED_PER_PACKET_NS)
                + self.nic.one_way_latency_ns + self.nic.pcie_latency_ns)

    def run(self, schema, data, steps=(), key=None, nonce=None):
        """:meth:`LcpuBaseline.run` on the remote CPU, plus the two-sided
        RPC and shipping the result to the client."""
        rows, _, cost = self._local.run(schema, data, steps, key, nonce)
        cost.add("two_sided_rpc", self.model.two_sided_ns())
        cost.add("ship_result", self._ship_ns(rows.nbytes))
        return rows, cost.total_ns, cost
