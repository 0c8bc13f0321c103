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

from ..common.errors import OperatorError

WORD_BYTES = 64


class Packer:
    """Accumulates output bytes and releases whole 64-byte words."""

    def __init__(self, word_bytes: int = WORD_BYTES):
        if word_bytes <= 0:
            raise OperatorError(f"word size must be positive: {word_bytes}")
        self.word_bytes = word_bytes
        self._carry = bytearray()  # the overflow buffer
        self.words_emitted = 0
        self.bytes_in = 0

    def pack(self, data: bytes) -> bytes:
        """Append ``data``; return all complete words ready for the queue."""
        self.bytes_in += len(data)
        self._carry.extend(data)
        whole = (len(self._carry) // self.word_bytes) * self.word_bytes
        if whole == 0:
            return b""
        out = bytes(self._carry[:whole])
        del self._carry[:whole]
        self.words_emitted += whole // self.word_bytes
        return out

    def flush(self) -> bytes:
        """Release the final partial word (sent as-is, like the hardware)."""
        if not self._carry:
            return b""
        out = bytes(self._carry)
        self._carry.clear()
        self.words_emitted += 1
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._carry)
