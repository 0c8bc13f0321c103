"""RDMA packets and packetization (paper §4.3).

The network stack processes requests "at the granularity of single network
packets" with out-of-order execution and credit-based flow control.  We
model packets explicitly: every transfer is chopped into payload chunks of
the configured packet size (1 kB in the paper's evaluation), each carrying
RoCE v2 framing overhead on the wire.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..common.errors import NetworkError

_packet_ids = itertools.count()


class Verb(enum.Enum):
    """RDMA operation kinds, including Farview's extra one-sided verb."""

    READ = "read"             # one-sided RDMA read
    WRITE = "write"           # one-sided RDMA write
    FARVIEW = "farview"       # paper §4.2: operator-invoking one-sided verb
    READ_RESPONSE = "read_response"
    ACK = "ack"


@dataclass(frozen=True)
class Packet:
    """One network packet: framing metadata plus (simulated) payload bytes."""

    verb: Verb
    qp_id: int
    psn: int                     # packet sequence number within the message
    payload: bytes = b""
    last: bool = False           # marks the final packet of a message
    params: tuple = ()           # operator parameters for FARVIEW requests
    packet_id: int = field(default_factory=lambda: next(_packet_ids))


#: Wire size of a request/ack packet that carries no payload: headers plus
#: the verb-specific parameter block (vaddr, length, operator params).
CONTROL_PACKET_BYTES = 64


def split_lengths(total: int, packet_size: int) -> list[int]:
    """Split ``total`` payload bytes into per-packet payload lengths."""
    if total < 0:
        raise NetworkError(f"negative payload size: {total}")
    if packet_size <= 0:
        raise NetworkError(f"packet size must be positive: {packet_size}")
    if total == 0:
        return []
    full, rem = divmod(total, packet_size)
    lengths = [packet_size] * full
    if rem:
        lengths.append(rem)
    return lengths


def packetize(verb: Verb, qp_id: int, payload: bytes,
              packet_size: int) -> list[Packet]:
    """Chop ``payload`` into a sequence of packets (PSN-ordered)."""
    lengths = split_lengths(len(payload), packet_size)
    if not lengths:
        return [Packet(verb, qp_id, psn=0, payload=b"", last=True)]
    packets = []
    offset = 0
    for psn, length in enumerate(lengths):
        chunk = payload[offset:offset + length]
        packets.append(Packet(verb, qp_id, psn=psn, payload=chunk,
                              last=(psn == len(lengths) - 1)))
        offset += length
    return packets


def reassemble(packets: list[Packet]) -> bytes:
    """Rebuild a message payload from (possibly out-of-order) packets."""
    if not packets:
        return b""
    qp_ids = {p.qp_id for p in packets}
    if len(qp_ids) != 1:
        raise NetworkError(f"packets from multiple QPs: {sorted(qp_ids)}")
    ordered = sorted(packets, key=lambda p: p.psn)
    psns = [p.psn for p in ordered]
    if psns != list(range(len(ordered))):
        raise NetworkError(f"missing or duplicate PSNs: {psns}")
    if not ordered[-1].last:
        raise NetworkError("message incomplete: final packet missing")
    return b"".join(p.payload for p in ordered)
