"""Hash functions: determinism, seed independence, known answers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OperatorError
from repro.operators.cuckoo import CuckooHashTable
from repro.operators.hashing import (
    hash_key_batch,
    hash_u64_array,
    key_words,
)

_MASK64 = (1 << 64) - 1


def splitmix64(value: int, seed: int = 0) -> int:
    """The seeded SplitMix64 finalizer in plain integers: the reference
    the vectorized mixer is held to."""
    x = (value + (seed + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_one(key: bytes, seed: int = 0) -> int:
    """One key through the only key hash: a batch of one."""
    return int(hash_key_batch(key, len(key), seed)[0])


def test_hash_key_distinguishes_lengths():
    # Same prefix, different length must hash differently (length is mixed in).
    assert hash_one(b"abc") != hash_one(b"abc\x00")


def test_hash_key_empty():
    # No keys hash to no hashes; a zero-width key is not a key.
    hashed = hash_key_batch(b"", 8)
    assert hashed.dtype == np.uint64 and hashed.shape == (0,)
    with pytest.raises(OperatorError):
        hash_key_batch(b"", 0)


def test_hash_key_rejects_negative_seed():
    with pytest.raises(OperatorError):
        hash_key_batch(b"x", 1, seed=-1)


def test_hash_key_rejects_ragged_image():
    with pytest.raises(OperatorError, match="not a multiple"):
        hash_key_batch(b"12345", 4)


#: Known answers recorded from the scalar ``hash_key`` this module used to
#: carry beside the batch hash (parent 0eb06a4), per (width, seed), for the
#: all-zero key, the all-0xFF key and a key with an embedded NUL.
HASH_VECTORS = {
    (1, 0): (0x5E41AB087439611E, 0xBEDCD771C5D60296, 0x5E41AB087439611E),
    (1, 1): (0x08C9EB4685B1DAD7, 0xFECCE4D491354057, 0x08C9EB4685B1DAD7),
    (1, 2): (0xAA7E844961F494EE, 0xE7BE9B680C19A618, 0xAA7E844961F494EE),
    (1, 3): (0xDB7B2CA93DFC9064, 0x73B11940DEC0A8B4, 0xDB7B2CA93DFC9064),
    (4, 0): (0xA0567EF80DEDF5CB, 0xB0013C0B103C5F27, 0x191E98F3DD82ACA5),
    (4, 1): (0xA2E5614D0402C38B, 0x91B81B3F04DF7DB2, 0xFA62E7F4CB9F8699),
    (4, 2): (0xD9F1608001265293, 0x005235827BC91F0C, 0x3596E2189E3585A0),
    (4, 3): (0x40F6C0F89840F6A9, 0x2195EBF008F691FF, 0x6343AB913118E8C2),
    (8, 0): (0x4442E4266C0AC966, 0xED0F9663AAF3AF91, 0x1B15A214BF12E1D2),
    (8, 1): (0xFF701FBA60AFC339, 0xD85203431253B2D1, 0x10C9DCECA29F9C67),
    (8, 2): (0x334A0137ECA64C22, 0xA241E5534865856A, 0x6792FE90D0042364),
    (8, 3): (0xED8499B18BAA0DC6, 0xBD432A59F2558BA9, 0x308D3AC6BFD308A1),
    (12, 0): (0xDE5BBFAF6D64CA6D, 0x3AFB26930A5D57A1, 0xE0F4A5F2CBA6F859),
    (12, 1): (0xF09E78B0A9B333CE, 0xB555A5506A236BD6, 0x37C187ED9D28B459),
    (12, 2): (0x5B5117208B098059, 0x6CD7D89083AF2864, 0xC7DD00B869910284),
    (12, 3): (0x7BF041A681C91411, 0x46E96CD913E9E591, 0xDDD554FA1D8348B0),
    (16, 0): (0xE032DCB999E67F99, 0xD571FABC6FC4AC79, 0x4248CE711D63CB98),
    (16, 1): (0xD3972AE671F32C95, 0x0AC3A548FE6F35B8, 0x3E75423594E5C037),
    (16, 2): (0x68A60C436ED0D12D, 0x0A5B704C6BE4AE89, 0x8AFC13958DAE10D0),
    (16, 3): (0x5F5CEEFBD338810C, 0xB6CB3FE62039F4C6, 0x82ABD788C4C59B9E),
    (24, 0): (0x1C8197993C3AE7DF, 0x95D7915E71546616, 0x849198B21245F171),
    (24, 1): (0x1AC9C3957CFAF31F, 0x142F065F39F27662, 0x6EFCB21D50B45D85),
    (24, 2): (0x50CCDA2939529C0E, 0x338097178A477E77, 0xF4B02CE5CCDE1E94),
    (24, 3): (0xDDE9F11E3832CA13, 0xEDF3D60A9611684F, 0xF0F1FAC1CAB33C6A),
}


def _vector_keys(width: int) -> list[bytes]:
    patterned = bytes((i * 37 + 11) % 251 + 1 for i in range(width))
    embedded_nul = (patterned[:width // 2] + b"\x00"
                    + patterned[width // 2 + 1:])
    return [bytes(width), b"\xff" * width, embedded_nul]


@pytest.mark.parametrize("width,seed", sorted(HASH_VECTORS))
def test_hash_key_batch_known_answers(width, seed):
    keys = _vector_keys(width)
    expected = list(HASH_VECTORS[width, seed])
    # As one packed batch, and each key as a batch of one.
    assert hash_key_batch(b"".join(keys), width, seed).tolist() == expected
    assert [hash_one(key, seed) for key in keys] == expected


def test_key_words_pads_the_last_word_with_zeros():
    words = key_words(b"\x01\x02\x03" + b"\xff" * 9, 12)
    assert words.shape == (1, 2) and words.dtype == np.uint64
    assert words.tolist() == [[0xFFFFFFFFFF030201, 0x00000000FFFFFFFF]]


def test_vectorized_matches_scalar():
    values = np.array([0, 1, 42, 2**40, 2**63, 2**64 - 1], dtype=np.uint64)
    for seed in (0, 1, 3):
        hashed = hash_u64_array(values, seed=seed)
        assert hashed.dtype == np.uint64
        # One 8-byte key is mixed twice by hash_key_batch (length, then
        # the word); hash_u64_array alone is exactly the scalar mixer.
        assert hashed.tolist() == [splitmix64(int(v), seed) for v in values]
    # determinism
    np.testing.assert_array_equal(hashed, hash_u64_array(values, seed=3))


def test_vectorized_seed_changes_output():
    values = np.arange(16, dtype=np.uint64)
    a = hash_u64_array(values, seed=0)
    b = hash_u64_array(values, seed=1)
    assert not np.array_equal(a, b)


def test_family_independent_functions():
    # The cuckoo ways are one hash seeded by the way index.
    key = b"group-key"
    hashes = {hash_one(key, seed=way) for way in range(4)}
    assert len(hashes) == 4  # all four functions differ on this key


def test_family_slot_in_range():
    table = CuckooHashTable(ways=2, slots_per_way=128)
    keys = b"".join(i.to_bytes(4, "little") for i in range(500))
    slots = table.way_slots(keys, 4)
    assert slots.shape == (2, 500)
    assert 0 <= slots.min() and slots.max() < 128
    for way in range(2):
        np.testing.assert_array_equal(
            slots[way], hash_key_batch(keys, 4, seed=way) % 128)


def test_family_validation():
    # A family of no functions is a table of no ways.
    with pytest.raises(OperatorError):
        CuckooHashTable(ways=0, slots_per_way=8)
    with pytest.raises(OperatorError):
        hash_key_batch(b"x", 1, seed=-1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.integers(1, 4), st.integers(0, 40),
       st.data())
def test_a_seed_column_hashes_every_seed_in_one_pass(width, ways, n, data):
    """Row ``i`` of a ``(k, 1)`` seed column's hash is the hash under
    ``seed[i]`` alone, bit for bit, and the broadcast pass rejects a
    negative seed anywhere in the column."""
    raw = data.draw(st.binary(min_size=width * n, max_size=width * n))
    seeds = data.draw(st.lists(st.integers(0, 2**32), min_size=ways,
                               max_size=ways))
    column = np.array(seeds)[:, None]
    hashed = hash_key_batch(raw, width, seed=column)
    assert hashed.dtype == np.uint64 and hashed.shape == (ways, n)
    for row, seed in zip(hashed, seeds):
        np.testing.assert_array_equal(row, hash_key_batch(raw, width, seed))
    with pytest.raises(OperatorError):
        hash_key_batch(raw, width, seed=np.array([[0], [-1]]))


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_hash_key_deterministic_property(key):
    assert hash_one(key, 0) == hash_one(key, 0)
    assert 0 <= hash_one(key, 0) < 2**64


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=50,
                unique=True))
def test_hash_key_collision_free_on_small_sets(keys):
    """64-bit hashes over tiny unique key sets should not collide."""
    hashes = [hash_one(k) for k in keys]
    assert len(set(hashes)) == len(keys)
