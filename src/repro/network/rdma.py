"""RDMA verb transport: request delivery and packetized response streams.

Implements the data movement shared by all one-sided verbs (paper §4.2-4.3):

* :func:`deliver_request` — a small control packet travels client->server
  (wire + propagation + NIC processing).
* :class:`ResponseStreamer` — the server streams a response to the
  client's buffer as a sequence of packets through the fair-share downlink
  arbiter, consuming a flow-control credit per packet in flight and
  releasing it when the packet lands (credit-based flow control, §4.3).
  Packets carry lengths; the response's bytes land whole once the last
  packet has, so the order packets land in cannot change them.
* :func:`deliver_write` — packetized client->server payload for RDMA WRITE.

The streamer is deliberately *incremental*: producers feed it chunk by
chunk, so memory reads, operator processing, and network sends overlap the
way the paper's deeply pipelined design intends (§4.1).
"""

from __future__ import annotations

from collections import deque

from ..common.errors import NetworkError
from ..sim.engine import Event, Simulator
from .link import Link
from .packet import CONTROL_PACKET_BYTES, split_lengths
from .qp import QueuePair


def deliver_request(sim: Simulator, link: Link, qp: QueuePair):
    """Process: one control packet client->server.  Yields until delivered."""
    qp.requests_sent += 1
    yield link.send_up(CONTROL_PACKET_BYTES)


def deliver_write(sim: Simulator, link: Link, qp: QueuePair, payload: bytes):
    """Process: packetized client->server payload (RDMA WRITE data), each
    packet charged the link's per-packet overhead.

    Returns the payload so callers can hand it to the memory stack.
    """
    lengths = split_lengths(len(payload), link.config.packet_size)
    if not lengths:
        yield link.send_up(CONTROL_PACKET_BYTES)
        return payload
    # Every packet is priced onto the uplink in one call (all but the last
    # are full-sized); the write completes when the last one arrives (the
    # uplink keeps order), which is the only arrival anything waits for.
    sizes = [link.wire_size(lengths[0])] * (len(lengths) - 1)
    sizes.append(link.wire_size(lengths[-1]))
    arrival = link.uplink.occupy_each(sizes, link.config.per_packet_overhead_ns)
    yield sim.timeout(arrival)
    return payload


class ResponseStreamer:
    """Streams a response to one client as credit-controlled packets.

    Usage (inside server processes)::

        streamer = ResponseStreamer(sim, link, qp)
        yield from streamer.send(nbytes)          # repeatedly, any lengths
        ...
        yield from streamer.finish(image)         # flush, deliver, land

    The stream carries lengths: they are coalesced into wire packets of
    the link's ``packet_size``, each charged its ``per_packet_overhead_ns``,
    and :meth:`finish` flushes the final partial packet.  The response's
    bytes land in the client's buffer once, whole, when its last packet
    has — Farview's sender posts one-sided writes into the client's
    posted buffer (§5.5 "Sending"), and only their timing needs packets.

    A packet costs the event loop its two timed hops — the arbiter grants
    it the wire, :meth:`_on_delivered` runs when it lands — plus one
    immediate hop (:meth:`_on_credit`) if it had to wait for a credit.
    The producer is resumed once per chunk, whose packets are cut in one call.
    """

    def __init__(self, sim: Simulator, link: Link, qp: QueuePair):
        self.sim = sim
        self.link = link
        self.qp = qp
        self.config = link.config
        #: Bytes sent and not yet cut into a packet.
        self._pending = 0
        #: Lengths of the packets cut and waiting for a flow-control
        #: credit, oldest first; while there are any, one waiter of ours
        #: is in the pool's FIFO.
        self._backlog: deque[int] = deque()
        #: Packets cut and not yet landed (the backlog included).
        self._inflight = 0
        #: What :meth:`send` / :meth:`finish` are parked on, if they are.
        self._credited: Event | None = None
        self._drained: Event | None = None
        self._finished = False
        self.packets_sent = 0
        self.payload_bytes_sent = 0

    # -- producer interface ----------------------------------------------------
    def send(self, nbytes: int):
        """Process: cut ``nbytes`` more into packets and put them on the
        wire; returns once the last of them holds a flow-control credit
        (so a producer is back-pressured exactly as if it had waited for
        each credit in turn, but is resumed once)."""
        if self._finished:
            raise NetworkError("stream already finished")
        size = self.config.packet_size
        packets, self._pending = divmod(self._pending + nbytes, size)
        self._cut(packets, size)
        if self._backlog:
            self._credited = Event(self.sim)
            yield self._credited
            self._credited = None

    def finish(self, image: bytes):
        """Process: flush the final partial packet, wait for delivery and
        land ``image``, the bytes streamed, in the client's buffer.

        Returns the total payload bytes streamed.
        """
        if self._finished:
            raise NetworkError("stream already finished")
        if self._pending:
            self._cut(1, self._pending)
            self._pending = 0
        self._finished = True
        if self._inflight:
            self._drained = Event(self.sim)
            yield self._drained
        if len(image) != self.payload_bytes_sent:
            raise NetworkError(
                f"response image of {len(image)} bytes for a stream of "
                f"{self.payload_bytes_sent}")
        self.qp.buffer.land(image)
        return self.payload_bytes_sent

    # -- internals ---------------------------------------------------------------
    def _cut(self, count: int, nbytes: int) -> None:
        """Cut ``count`` packets of ``nbytes``: transmit one per free
        credit and queue the rest behind those already waiting for one,
        as taking each packet's credit in turn would."""
        self._inflight += count
        self.packets_sent += count
        self.payload_bytes_sent += count * nbytes
        free = 0 if self._backlog else self.qp.credits.take(count)
        for _ in range(free):
            self.link.send_down(self.qp.qp_id, nbytes,
                                self.config.per_packet_overhead_ns,
                                self._on_delivered)
        if free < count:
            if not self._backlog:
                self.qp.credits.acquire_then(self._on_credit)
            self._backlog.extend([nbytes] * (count - free))

    def _on_credit(self) -> None:
        """A landed packet returned the credit the oldest queued one
        waits for; the pool hands out the next the same way."""
        self.link.send_down(self.qp.qp_id, self._backlog.popleft(),
                            self.config.per_packet_overhead_ns,
                            self._on_delivered)
        if self._backlog:
            self.qp.credits.acquire_then(self._on_credit)
        elif self._credited is not None:
            self._credited.succeed()

    def _on_delivered(self) -> None:
        self.qp.credits.release()
        self.qp.responses_received += 1
        self._inflight -= 1
        if not self._inflight and self._drained is not None:
            self._drained.succeed()
