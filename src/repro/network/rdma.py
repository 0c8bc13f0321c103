"""RDMA verb transport: request delivery and packetized response streams.

Implements the data movement shared by all one-sided verbs (paper §4.2-4.3):

* :func:`deliver_request` — a small control packet travels client->server
  (wire + propagation + NIC processing).
* :class:`ResponseStreamer` — the server streams a response to the
  client's buffer as a sequence of packets through the fair-share downlink
  arbiter, which holds a flow-control credit per packet in flight and
  returns it when the packet lands (credit-based flow control, §4.3).
  Packets carry lengths; the response's bytes land whole once the last
  packet has, so the order packets land in cannot change them.
* :func:`deliver_write` — packetized client->server payload for RDMA WRITE.

The streamer is deliberately *incremental*: producers feed it chunk by
chunk, so memory reads, operator processing, and network sends overlap the
way the paper's deeply pipelined design intends (§4.1).
"""

from __future__ import annotations

from typing import Optional

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

    A producer that runs as callbacks calls :meth:`cut` instead and waits
    on the event it returns.

    The stream carries lengths: they are coalesced into wire packets of
    the link's ``packet_size``, each charged its ``per_packet_overhead_ns``,
    and :meth:`finish` flushes the final partial packet.  The response's
    bytes land in the client's buffer once, whole, when its last packet
    has — Farview's sender posts one-sided writes into the client's
    posted buffer (§5.5 "Sending"), and only their timing needs packets.

    The packets' credit loop is the downlink arbiter's
    (:meth:`~repro.sim.resources.RoundRobinArbiter.open_stream`): alone
    on the wire, the stream runs as a train and costs the event loop a
    callback per chunk the producer waits on, not hops per packet.  The
    producer is resumed once per chunk, whose packets are cut in one call.
    """

    def __init__(self, sim: Simulator, link: Link, qp: QueuePair):
        self.sim = sim
        self.link = link
        self.qp = qp
        self.config = link.config
        self._arbiter = link.down_arbiter
        self._stream = self._arbiter.open_stream(
            qp.qp_id, qp.credits, link.wire_size,
            self.config.per_packet_overhead_ns)
        #: Bytes sent and not yet cut into a packet.
        self._pending = 0
        self._finished = False
        self.packets_sent = 0
        self.payload_bytes_sent = 0

    # -- producer interface ----------------------------------------------------
    def cut(self, nbytes: int) -> Optional[Event]:
        """Cut ``nbytes`` more into packets and put them on the wire;
        returns the event that fires once the last of them holds a
        flow-control credit, or None if it already does (so a producer
        is back-pressured exactly as if it had waited for each credit in
        turn, but is resumed once)."""
        if self._finished:
            raise NetworkError("stream already finished")
        size = self.config.packet_size
        packets, self._pending = divmod(self._pending + nbytes, size)
        self._cut(packets, size)
        return self._arbiter.credited(self._stream)

    def send(self, nbytes: int):
        """Process: :meth:`cut`, then wait for the event it returns."""
        credited = self.cut(nbytes)
        if credited is not None:
            yield credited

    def abandon(self) -> None:
        """The producer failed: the stream closes once its packets land."""
        if not self._finished:
            self._finished = True
            self._arbiter.drained(self._stream)

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
        drained = self._arbiter.drained(self._stream)
        if drained is not None:
            yield drained
        if len(image) != self.payload_bytes_sent:
            raise NetworkError(
                f"response image of {len(image)} bytes for a stream of "
                f"{self.payload_bytes_sent}")
        self.qp.buffer.land(image)
        return self.payload_bytes_sent

    def _cut(self, count: int, nbytes: int) -> None:
        self.packets_sent += count
        self.payload_bytes_sent += count * nbytes
        self._arbiter.send(self._stream, count, nbytes)
