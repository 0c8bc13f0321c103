"""Queue pairs and client-side receive buffers (paper §4.3).

"In RDMA, the information describing a single node-to-node connection or
RDMA flow is associated with a queue pair. Farview identifies flows using
such queue pairs" — each QP carries a unique id used for routing, fair
arbitration, and isolation, plus credit-based flow control state.

The client posts a *local buffer* into which Farview's one-sided writes
put results; :class:`ClientBuffer` models that memory functionally.
Only the timing needs packets: a response's bytes land once, whole,
when its last packet has.
"""

from __future__ import annotations

import itertools

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

    def require_room(self, nbytes: int) -> None:
        """Refuse a response of ``nbytes`` that the buffer cannot hold."""
        if nbytes > self.capacity:
            raise NetworkError(
                f"response of {nbytes} bytes overflows client buffer of "
                f"{self.capacity} bytes")

    def land(self, image: bytes) -> None:
        """Land a whole response image at offset 0 (kept, not copied)."""
        self.require_room(len(image))
        self._data = image
        self.bytes_received += len(image)

    def read(self, offset: int, length: int) -> bytes:
        """The landed bytes ``[offset, +length)``; the whole landed image
        is the object :meth:`land` was given.  Bytes nothing landed on
        read as zero."""
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise NetworkError(
                f"read [{offset}, +{length}) overflows client buffer")
        data = self._data[offset:offset + length]
        return data + bytes(length - len(data)) if len(data) < length else data

    def reset(self) -> None:
        self._data = b""
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
        self.requests_sent = 0

    @property
    def responses_received(self) -> int:
        """Response packets landed: each returned its credit."""
        return self.credits.returned

    def __repr__(self) -> str:
        state = "connected" if self.connected else "idle"
        return f"QueuePair(id={self.qp_id}, {state})"
