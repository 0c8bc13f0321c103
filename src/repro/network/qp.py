"""Queue pairs and client-side receive buffers (paper §4.3).

"In RDMA, the information describing a single node-to-node connection or
RDMA flow is associated with a queue pair. Farview identifies flows using
such queue pairs" — each QP carries a unique id used for routing, fair
arbitration, and isolation, plus credit-based flow control state.

The client posts a *local buffer* into which Farview's one-sided writes
deposit results; :class:`ClientBuffer` models that memory functionally.
"""

from __future__ import annotations

import itertools
import mmap

from ..common.errors import NetworkError
from ..sim.engine import Simulator
from ..sim.resources import CreditPool

_qp_ids = itertools.count(1)


class ClientBuffer:
    """Client-local memory region receiving one-sided RDMA writes."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise NetworkError(f"client buffer needs positive capacity: {capacity}")
        self.capacity = capacity
        self.reset()

    def deposit(self, offset: int, chunk: bytes) -> None:
        """Land one packet's payload at ``offset`` (out-of-order friendly)."""
        if offset < 0 or offset + len(chunk) > self.capacity:
            raise NetworkError(
                f"deposit [{offset}, +{len(chunk)}) overflows client buffer "
                f"of {self.capacity} bytes")
        self._data[offset:offset + len(chunk)] = chunk
        self.bytes_received += len(chunk)

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        if length is None:
            length = self.capacity - offset
        if offset < 0 or offset + length > self.capacity:
            raise NetworkError(
                f"read [{offset}, +{length}) overflows client buffer")
        return bytes(self._data[offset:offset + length])

    def reset(self) -> None:
        # An anonymous mapping, not heap memory: pages become resident
        # only when a deposit touches them, whatever the allocator has
        # recycled (a calloc'd bytearray is zero-filled, hence resident,
        # exactly when glibc hands back a freed chunk).
        self._data = mmap.mmap(-1, self.capacity)
        self.bytes_received = 0


class QueuePair:
    """One RDMA flow: routing id, credits, and the client receive buffer."""

    def __init__(self, sim: Simulator, buffer_capacity: int,
                 credits: int, qp_id: int | None = None):
        self.qp_id = qp_id if qp_id is not None else next(_qp_ids)
        self.sim = sim
        self.buffer = ClientBuffer(buffer_capacity)
        self.credits = CreditPool(sim, credits, name=f"qp{self.qp_id}")
        self.connected = False
        self.region_index: int | None = None
        self.domain: int | None = None
        self.requests_sent = 0
        self.responses_received = 0

    def __repr__(self) -> str:
        state = "connected" if self.connected else "idle"
        return f"QueuePair(id={self.qp_id}, {state}, region={self.region_index})"
