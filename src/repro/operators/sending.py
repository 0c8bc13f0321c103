"""Sender unit: dynamic RDMA command generation (paper §5.5).

"The sender unit is the final step before the results are emitted to the
network stack.  It monitors the queue present in this module where the
packed results are written.  Based on the status of this queue this module
issues specific RDMA packet commands ... even when the final data size is
not known a priori, as is the case with most of the operators."

The sender couples the packer's output queue to a
:class:`~repro.network.rdma.ResponseStreamer`: every drained word batch
becomes RDMA WRITE commands into the client's buffer, and ``finish``
flushes the partial word plus the end-of-message command, landing the
response's bytes, joined once.
"""

from __future__ import annotations

from typing import Optional

from ..network.rdma import ResponseStreamer
from ..sim.engine import Event
from .packing import Packer


class Sender:
    """Drives packed result bytes into the response stream."""

    def __init__(self, streamer: ResponseStreamer):
        self.streamer = streamer
        self.packer = Packer()
        self.commands_issued = 0
        self._words: list[bytes] = []

    def cut(self, data: bytes) -> Optional[Event]:
        """Pack ``data`` and cut any whole words into the stream; returns
        the event to wait on (:meth:`ResponseStreamer.cut`), or None."""
        ready = self.packer.pack(data)
        if not ready:
            return None
        self.commands_issued += 1
        self._words.append(ready)
        return self.streamer.cut(len(ready))

    def send(self, data: bytes):
        """Process: :meth:`cut`, then wait for the event it returns."""
        credited = self.cut(data)
        if credited is not None:
            yield credited

    def finish(self):
        """Process: flush the final partial word and close the stream,
        landing every word sent as one image.

        Returns total payload bytes sent (the size was not known a priori —
        the sender computed it on the fly, as the paper emphasizes).
        """
        tail = self.packer.flush()
        if tail:
            self.commands_issued += 1
            self._words.append(tail)
            yield from self.streamer.send(len(tail))
        words, self._words = b"".join(self._words), []
        return (yield from self.streamer.finish(words))
