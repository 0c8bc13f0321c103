"""Hash functions for the grouping operators.

FPGA database operators favour cheap, high-quality multiplicative and
XOR-shift mixers that pipeline to one result per cycle (cf. Kara & Alonso,
"Fast and robust hashing for database operators", FPL'16 — reference [44]
of the paper).  We implement a splitmix64-style finalizer parameterized by
seed so the cuckoo tables can use independent hash functions.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError

_MASK64 = (1 << 64) - 1

#: Odd multipliers for the seeded mixers (from splitmix64 / murmur3 lineage).
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SEED_GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int, seed: int = 0) -> int:
    """SplitMix64 finalizer over one 64-bit value (seeded)."""
    x = (value + (seed + 1) * _SEED_GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _M1) & _MASK64
    x ^= x >> 27
    x = (x * _M2) & _MASK64
    x ^= x >> 31
    return x


def key_words(raw: bytes | memoryview, width: int) -> np.ndarray:
    """``n`` packed ``width``-byte keys as an ``(n, words)`` uint64 matrix.

    Each key is split into little-endian 8-byte words, the last one
    zero-padded.  Two keys of the same width are byte-equal exactly when
    their word rows are equal, so the join compares keys on this matrix.
    """
    if width <= 0:
        raise OperatorError(f"key width must be positive: {width}")
    data = np.frombuffer(raw, dtype=np.uint8)
    if data.size % width:
        raise OperatorError(
            f"key image of {data.size} bytes is not a multiple of the key "
            f"width {width}")
    n = data.size // width
    nwords = (width + 7) // 8
    if width == nwords * 8:
        return data.view("<u8").reshape(n, nwords)
    padded = np.zeros((n, nwords * 8), dtype=np.uint8)
    padded[:, :width] = data.reshape(n, width)
    return padded.view("<u8")


def hash_key_batch(raw: bytes | memoryview, width: int,
                   seed: int = 0) -> np.ndarray:
    """Hash ``n`` fixed-width byte keys in one vectorized pass.

    ``raw`` packs ``n`` keys of ``width`` bytes back to back (a key-schema
    byte image).  Returns one uint64 hash per key: the key length is mixed
    first, then each 8-byte word of :func:`key_words` is XOR-chained
    through the seeded mixer.  This is the only key hash — a single key is
    a batch of one.
    """
    if seed < 0:
        raise OperatorError(f"negative hash seed: {seed}")
    words = key_words(raw, width)
    acc = np.full(len(words), mix64(width, seed), dtype=np.uint64)
    for j in range(words.shape[1]):
        acc = hash_u64_array(acc ^ words[:, j], seed)
    return acc


def hash_u64_array(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized SplitMix64 over a uint64 array (one hash per element)."""
    x = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(((seed + 1) * _SEED_GOLDEN) & _MASK64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_M1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_M2)
        x ^= x >> np.uint64(31)
    return x
