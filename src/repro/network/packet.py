"""RDMA packetization (paper §4.3).

The network stack processes requests "at the granularity of single network
packets" with out-of-order execution and credit-based flow control.  Every
transfer is chopped into payload chunks of the configured packet size
(1 kB in the paper's evaluation), each carrying RoCE v2 framing overhead
on the wire; a packet is a payload length, never an object of its own.
"""

from __future__ import annotations

from ..common.errors import NetworkError

#: Wire size of a request/ack packet that carries no payload: headers plus
#: the verb-specific parameter block (vaddr, length, operator params).
CONTROL_PACKET_BYTES = 64


def split_lengths(total: int, packet_size: int) -> list[int]:
    """Split ``total`` payload bytes into per-packet payload lengths."""
    if total < 0:
        raise NetworkError(f"negative payload size: {total}")
    if packet_size <= 0:
        raise NetworkError(f"packet size must be positive: {packet_size}")
    full, rem = divmod(total, packet_size)
    lengths = [packet_size] * full
    if rem:
        lengths.append(rem)
    return lengths
