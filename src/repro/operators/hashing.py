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

#: Odd multipliers for the seeded mixers (from splitmix64 / murmur3 lineage).
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SEED_GOLDEN = 0x9E3779B97F4A7C15


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
                   seed: int | np.ndarray = 0) -> np.ndarray:
    """Hash ``n`` fixed-width byte keys in one vectorized pass.

    ``raw`` packs ``n`` keys of ``width`` bytes back to back (a key-schema
    byte image).  Returns one uint64 hash per key: the key length is mixed
    first, then each 8-byte word of :func:`key_words` is XOR-chained
    through the seeded mixer.  This is the only key hash — a single key is
    a batch of one.

    ``seed`` may be a column of ``k`` seeds (shape ``(k, 1)``): every key
    is then hashed under each seed in the same broadcast pass, and the
    result is ``(k, n)``, row ``i`` bit-identical to a call with seed
    ``seed[i, 0]`` — the cuckoo ways' independent hash functions at once.
    """
    seed = np.asarray(seed)
    if (seed < 0).any():
        raise OperatorError(f"negative hash seed: {seed.min()}")
    words = key_words(raw, width)
    acc = hash_u64_array(np.uint64(width), seed)
    for j in range(words.shape[1]):
        acc = hash_u64_array(acc ^ words[:, j], seed)
    return acc


def hash_u64_array(values: np.ndarray, seed: int | np.ndarray = 0
                   ) -> np.ndarray:
    """Vectorized SplitMix64 over a uint64 array (one hash per element),
    seeded by ``seed`` or, broadcast against ``values``, by an array of
    seeds.  This is the only mixer."""
    with np.errstate(over="ignore"):
        x = np.add(values, (np.asarray(seed, dtype=np.uint64) + np.uint64(1))
                   * np.uint64(_SEED_GOLDEN), dtype=np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_M1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_M2)
        x ^= x >> np.uint64(31)
    return x
