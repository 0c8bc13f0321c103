"""RNIC baseline: one-sided reads over a commercial NIC (§6.2, Figure 6).

"For RDMA microbenchmark experiments, we compare remote reads from Farview
(FV) to remote reads to a different machine using one-sided RDMA
operations over a commercial NIC (RNIC) that accesses the remote memory
over PCIe."

The model captures the two effects the paper reports:

* **latency path** — a single READ pays the NIC's (low) request latency
  plus a PCIe host-memory crossing; per-packet handling on the latency
  path is costlier than Farview's, so response time degrades faster with
  transfer size ("the multi-packet processing and page handling in the
  FPGA network stack performs better");
* **throughput path** — with a window of outstanding READs, DMA engines
  pipeline packet fetches, but the PCIe bus caps sustained throughput at
  ~11 GBps (Fig 6(a)).
"""

from __future__ import annotations

from ..common import calibration as cal
from ..common.config import RnicConfig
from ..common.errors import ConfigurationError
from ..network.packet import CONTROL_PACKET_BYTES


class RnicBaseline:
    """Analytic response-time / throughput model of the ConnectX-5 path."""

    def __init__(self, config: RnicConfig | None = None):
        self.config = config if config is not None else RnicConfig()

    # -- single-request response time (Figure 6b) --------------------------------
    def read_response_time_ns(self, transfer_bytes: int) -> float:
        if transfer_bytes <= 0:
            raise ConfigurationError(
                f"transfer size must be positive: {transfer_bytes}")
        cfg = self.config
        packets = -(-transfer_bytes // cfg.packet_size)
        # Request travels to the remote NIC...
        request = ((CONTROL_PACKET_BYTES + cfg.header_overhead) / cfg.line_rate
                   + cfg.one_way_latency_ns)
        # ...the NIC fetches from host DRAM over PCIe and replies.
        per_packet = max(
            (min(transfer_bytes, cfg.packet_size) + cfg.header_overhead)
            / cfg.line_rate,
            cfg.per_packet_overhead_ns,
        )
        return (request
                + cfg.request_overhead_ns
                + cfg.pcie_latency_ns
                + packets * per_packet
                + cfg.one_way_latency_ns)

    # -- windowed sustained throughput (Figure 6a) ------------------------------------
    def read_throughput_gbps(self, transfer_bytes: int,
                             window: int = cal.THROUGHPUT_WINDOW) -> float:
        """Sustained GB/s with ``window`` outstanding READs."""
        if window <= 0:
            raise ConfigurationError(f"window must be positive: {window}")
        cfg = self.config
        rtt = self.read_response_time_ns(transfer_bytes)
        offered = window * transfer_bytes / rtt
        packets = -(-transfer_bytes // cfg.packet_size)
        pipelined_packet_cap = (transfer_bytes
                                / (packets * cal.RNIC_PIPELINED_PER_PACKET_NS))
        frame = transfer_bytes + packets * cfg.header_overhead
        wire_cap = cfg.line_rate * transfer_bytes / frame
        issue_cap = transfer_bytes / cal.RNIC_REQUEST_ISSUE_NS
        return min(offered, wire_cap, cfg.pcie_bandwidth,
                   pipelined_packet_cap, issue_cap)
