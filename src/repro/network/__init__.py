"""Network stack: packets, link, queue pairs, RDMA verb transport (§4.3)."""

from .link import Link
from .packet import CONTROL_PACKET_BYTES, split_lengths
from .qp import ClientBuffer, QueuePair
from .rdma import ResponseStreamer, deliver_request, deliver_write

__all__ = [
    "Link",
    "CONTROL_PACKET_BYTES",
    "split_lengths",
    "ClientBuffer",
    "QueuePair",
    "ResponseStreamer",
    "deliver_request",
    "deliver_write",
]
