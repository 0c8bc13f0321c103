"""Packing unit: dense 64-byte output words (paper §5.5).

"At the end of the processing pipeline, the annotated columns are first
packed based on their annotation flags in a bid to reduce the overall data
sent over the network.  Multiple columns across the tuples are packed into
64 byte words prior to their writing into the output queue.  This packing
uses an overflow buffer to efficiently sustain the line rate."

Our row operators already narrow tuples to the annotated columns, so the
packer's functional job is dense serialization into 64-byte words with a
carry (the "overflow buffer") for the partial word between bursts.
"""

from __future__ import annotations

WORD_BYTES = 64


class Packer:
    """Accumulates output bytes and releases whole 64-byte words."""

    def __init__(self):
        self._carry = bytearray()  # the overflow buffer
        self.words_emitted = 0
        self.bytes_in = 0

    def pack(self, data: bytes) -> bytes:
        """Append ``data``; return all complete words ready for the queue."""
        self.bytes_in += len(data)
        self._carry.extend(data)
        whole = (len(self._carry) // WORD_BYTES) * WORD_BYTES
        if whole == 0:
            return b""
        out = bytes(self._carry[:whole])
        del self._carry[:whole]
        self.words_emitted += whole // WORD_BYTES
        return out

    def flush(self) -> bytes:
        """Release the final partial word (sent as-is, like the hardware)."""
        if not self._carry:
            return b""
        out = bytes(self._carry)
        self._carry.clear()
        self.words_emitted += 1
        return out
