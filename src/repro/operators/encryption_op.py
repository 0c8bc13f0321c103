"""Encryption/decryption stream operators (paper §5.5).

These wrap :class:`~repro.operators.crypto.AesCtr` as byte-stream stages:

* :class:`DecryptOperator` — placed *before* the parser to decrypt data at
  rest ("decryption early in the pipeline", §5.1), e.g. regex matching on
  encrypted strings;
* :class:`EncryptOperator` — placed *after* the packer to secure the
  transmission to the client.

CTR mode is a stream cipher, but our seekable implementation operates on
16-byte block boundaries; the operators buffer sub-block remainders so
arbitrary chunk sizes stream correctly.
"""

from __future__ import annotations

from ..common.errors import OperatorError
from .base import ByteOperator
from .crypto import AesCtr


class _CtrStage(ByteOperator):
    """Common streaming logic: block-aligned CTR processing with carry."""

    def __init__(self, name: str, key: bytes, nonce: bytes):
        super().__init__(name)
        self._ctr = AesCtr(key, nonce)
        self._offset = 0
        self._carry = b""

    def _process(self, chunk: bytes | memoryview) -> bytes:
        if self._carry:
            chunk = self._carry + bytes(chunk)
            self._carry = b""
        usable = len(chunk) - (len(chunk) % AesCtr.BLOCK)
        if usable != len(chunk):
            self._carry = bytes(chunk[usable:])
            chunk = chunk[:usable]
        if usable == 0:
            return b""
        out = self._ctr.process(chunk, self._offset)
        self._offset += usable
        return out

    def finish(self) -> bytes:
        """Process the final partial block (keystream tail)."""
        if not self._carry:
            return b""
        tail = self._carry
        self._carry = b""
        ks = self._ctr.keystream(self._offset // AesCtr.BLOCK, len(tail))
        self._offset += len(tail)
        return bytes(a ^ b for a, b in zip(tail, ks))


class DecryptOperator(_CtrStage):
    """Decrypt the base-table stream before parsing."""

    def __init__(self, key: bytes, nonce: bytes):
        super().__init__("decryption", key, nonce)


class EncryptOperator(_CtrStage):
    """Encrypt the packed output stream before transmission."""

    def __init__(self, key: bytes, nonce: bytes):
        super().__init__("encryption", key, nonce)


def encrypt_table_image(data: bytes, key: bytes, nonce: bytes) -> bytes:
    """Encrypt a whole base-table image for at-rest storage."""
    if not data:
        raise OperatorError("refusing to encrypt an empty table image")
    return AesCtr(key, nonce).process(data, 0)


def decrypt_table_image(data: bytes, key: bytes, nonce: bytes) -> bytes:
    """Inverse of :func:`encrypt_table_image` (CTR is symmetric)."""
    return AesCtr(key, nonce).process(data, 0)
