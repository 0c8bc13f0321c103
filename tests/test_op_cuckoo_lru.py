"""Cuckoo hash table and shift-register LRU cache."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OperatorError
from repro.operators.cuckoo import CuckooHashTable
from repro.operators.hashing import hash_key_batch
from repro.operators.lru_cache import ShiftRegisterLru


# --- cuckoo ----------------------------------------------------------------------

def test_put_get_round_trip():
    table = CuckooHashTable(ways=4, slots_per_way=64)
    assert table.put(b"alpha", 1)
    assert table.get(b"alpha") == 1
    assert b"alpha" in table
    assert len(table) == 1


def test_get_missing_returns_none():
    table = CuckooHashTable(ways=2, slots_per_way=8)
    assert table.get(b"nope") is None
    assert b"nope" not in table


def test_put_updates_existing():
    table = CuckooHashTable(ways=2, slots_per_way=8)
    table.put(b"k", 1)
    table.put(b"k", 2)
    assert table.get(b"k") == 2
    assert len(table) == 1


def test_precomputed_slots_equal_hashing_on_demand():
    table = CuckooHashTable(ways=4, slots_per_way=64)
    keys = [i.to_bytes(8, "little") for i in range(40)]
    slots = table.way_slots(b"".join(keys), 8).T.tolist()
    for i, key in enumerate(keys[:20]):
        assert table.put(key, i, slots[i])
    for i, key in enumerate(keys):
        expected = i if i < 20 else None
        assert table.get(key) == expected           # batch of one
        assert table.get(key, slots[i]) == expected  # precomputed row
        assert (key in table) == (i < 20)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(1, 4), st.integers(1, 5000),
       st.integers(0, 40), st.data())
def test_one_pass_way_slots_equal_one_hash_per_way(width, ways,
                                                   slots_per_way, n, data):
    """All ways hashed in one broadcast pass give, way by way, the slots
    of ``hash_key_batch`` seeded with the way: bit for bit, as ``intp``."""
    raw = data.draw(st.binary(min_size=width * n, max_size=width * n))
    table = CuckooHashTable(ways, slots_per_way)
    slots = table.way_slots(raw, width)
    assert slots.dtype == np.intp and slots.shape == (ways, n)
    for way in range(ways):
        np.testing.assert_array_equal(
            slots[way],
            (hash_key_batch(raw, width, seed=way) % slots_per_way
             ).astype(np.intp))


def test_many_inserts_without_overflow():
    table = CuckooHashTable(ways=4, slots_per_way=256)
    n = 512  # 50% load over 1024 slots
    for i in range(n):
        table.put(f"key{i}".encode(), i)
    assert len(table) + len(table.overflow) == n
    assert not table.overflow  # cuckoo at 50% load should not overflow
    for i in range(0, n, 37):
        assert table.get(f"key{i}".encode()) == i


def test_overload_produces_overflow_not_errors():
    table = CuckooHashTable(ways=2, slots_per_way=8, max_kicks=4)
    inserted = 0
    for i in range(64):  # 4x capacity
        table.put(f"key{i}".encode(), i)
        inserted += 1
    assert len(table) <= table.capacity
    assert len(table.overflow) == inserted - len(table)
    # Every key is either resident or in the overflow buffer.
    resident = {k for k, _ in table.items()}
    overflowed = {k for k, _ in table.overflow}
    assert resident | overflowed == {f"key{i}".encode() for i in range(64)}
    assert resident.isdisjoint(overflowed)


def _lcg_keys(n, x=14):
    keys = []
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        keys.append(x.to_bytes(8, "little"))
    return keys


def test_high_load_state_is_pinned():
    """Size, kicks, overflow and every resident's (way, slot) for a fixed
    3,000-key sequence at ~150% load — literals captured on parent 0eb06a4,
    where evicted entries were re-hashed instead of carrying their slots."""
    keys = _lcg_keys(3000)
    table = CuckooHashTable(ways=2, slots_per_way=1024, max_kicks=4)
    results = [table.put(key, i) for i, key in enumerate(keys)]
    assert (table.size, table.kicks, len(table.overflow)) == (1928, 4659, 1072)
    assert results.count(False) == 1072
    assert [v for _, v in table.overflow[:8]] == [
        561, 342, 503, 562, 801, 942, 160, 698]
    assert all(keys[v] == k for k, v in table.overflow)
    assert hashlib.sha256(
        b"".join(k for k, _ in table.overflow)).hexdigest() == (
        "427dfb09f058e886acb4b484169639911f2315d7a2b702d9a4beae7696c93b36")
    # Where every resident key lives: its row index wins exactly one
    # (way, slot) of the owner image.
    owner = table.owner_image()
    slots = table.way_slots(b"".join(keys), 8)
    place = {}
    for way in range(2):
        for i in range(3000):
            if owner[way, slots[way, i]] == i:
                assert i not in place
                place[i] = (way, int(slots[way, i]))
    assert len(place) == 1928
    assert [place.get(i) for i in range(12)] == [
        (0, 430), (0, 924), (1, 673), None, (1, 651), (0, 881), None,
        (1, 188), (0, 452), (0, 320), None, (1, 701)]
    assert [sum(1 for w, _ in place.values() if w == way)
            for way in range(2)] == [961, 967]
    digest = hashlib.sha256()
    for i in sorted(place):
        digest.update(f"{i}:{place[i][0]}:{place[i][1]};".encode())
    assert digest.hexdigest() == (
        "4675ac929b0e83a620fcd3e762d4ebf24cb29957b1b8a100bbd48e671c721bc1")
    assert dict(table.items()) == {keys[i]: i for i in place}
    for i in (0, 3, 2999):
        assert table.get(keys[i]) == (i if i in place else None)


def _insert_in_chunks(table, keys, values, cuts=()):
    """Load ``keys`` through :meth:`CuckooHashTable.insert`, one call per
    chunk between ``cuts``, resuming after each overflowing row as a
    caller does; returns each call's stop row (as a global row index)."""
    slots = table.way_slots(b"".join(keys), 8)
    stops = []
    for lo, hi in zip([0, *cuts], [*cuts, len(keys)]):
        while True:
            stop = table.insert(keys[lo:hi], values[lo:hi], slots[:, lo:hi])
            stops.append(lo + stop)
            lo += stop + 1
            if lo >= hi:
                break
    return stops


def _put_in_chunks(table, keys, values, cuts=()):
    """The same calls, answered by one ``put`` per key."""
    slots = table.way_slots(b"".join(keys), 8).T.tolist()
    stops = []
    for lo, hi in zip([0, *cuts], [*cuts, len(keys)]):
        while True:
            stop = next((i for i in range(lo, hi)
                         if not table.put(keys[i], values[i], slots[i])), hi)
            stops.append(stop)
            lo = stop + 1
            if lo >= hi:
                break
    return stops


def _state(table):
    """Where every key sits, way by way, plus the counters and the
    overflow buffer in order."""
    return ([{slot: table._keys[entry] for slot, entry in way.items()}
             for way in table._tables],
            table.kicks, table.size, table.overflow)


def test_high_load_state_is_pinned_through_insert():
    """``test_high_load_state_is_pinned``'s 3,000 keys loaded through
    ``insert`` hit the same pins: size, kicks and overflow count, the
    overflow digest and the digest of where every resident sits."""
    keys = _lcg_keys(3000)
    table = CuckooHashTable(ways=2, slots_per_way=1024, max_kicks=4)
    stops = _insert_in_chunks(table, keys, range(3000))
    assert (table.size, table.kicks, len(table.overflow)) == (1928, 4659, 1072)
    assert len(set(stops) - {3000}) == 1072
    assert hashlib.sha256(
        b"".join(k for k, _ in table.overflow)).hexdigest() == (
        "427dfb09f058e886acb4b484169639911f2315d7a2b702d9a4beae7696c93b36")
    owner = table.owner_image()
    slots = table.way_slots(b"".join(keys), 8)
    digest = hashlib.sha256()
    for i in range(3000):
        for way in range(2):
            if owner[way, slots[way, i]] == i:
                digest.update(f"{i}:{way}:{slots[way, i]};".encode())
    assert digest.hexdigest() == (
        "4675ac929b0e83a620fcd3e762d4ebf24cb29957b1b8a100bbd48e671c721bc1")
    stepped = CuckooHashTable(ways=2, slots_per_way=1024, max_kicks=4)
    assert _put_in_chunks(stepped, keys, range(3000)) == stops
    assert _state(table) == _state(stepped)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 64), st.integers(1, 8), st.data())
def test_insert_equals_one_put_per_key(ways, slots_per_way, max_kicks, data):
    """On a table pre-filled by ``put``s, up to 2x capacity of further
    keys through ``insert`` in drawn chunks leave the per-way layout,
    ``kicks``, ``size``, the overflow buffer in order, the owner image and
    every chunk's stop row exactly as one ``put`` per key does."""
    bulk = CuckooHashTable(ways, slots_per_way, max_kicks)
    stepped = CuckooHashTable(ways, slots_per_way, max_kicks)
    prefill = data.draw(st.integers(0, bulk.capacity), label="prefill")
    more = data.draw(st.integers(0, 2 * bulk.capacity), label="more")
    keys = _lcg_keys(prefill + more, x=data.draw(st.integers(0, 2**64 - 1)))
    for i, key in enumerate(keys[:prefill]):
        assert bulk.put(key, i) == stepped.put(key, i)
    cuts = sorted(data.draw(st.lists(st.integers(0, more), max_size=4),
                            label="cuts"))
    rest, values = keys[prefill:], range(prefill, prefill + more)
    assert (_insert_in_chunks(bulk, rest, values, cuts)
            == _put_in_chunks(stepped, rest, values, cuts))
    assert _state(bulk) == _state(stepped)
    np.testing.assert_array_equal(bulk.owner_image(), stepped.owner_image())


def test_owner_image_marks_empty_slots():
    table = CuckooHashTable(ways=2, slots_per_way=8)
    assert (table.owner_image() == -1).all()
    table.put(b"k", 5)
    owner = table.owner_image()
    assert owner.shape == (2, 8) and owner.dtype.name == "int32"
    assert sorted(owner.ravel().tolist()) == [-1] * 15 + [5]


def test_drain_overflow_empties_buffer():
    table = CuckooHashTable(ways=1, slots_per_way=2, max_kicks=1)
    for i in range(16):
        table.put(f"key{i}".encode(), i)
    drained = table.drain_overflow()
    assert drained
    assert table.overflow == []


def test_validation():
    with pytest.raises(OperatorError):
        CuckooHashTable(ways=0, slots_per_way=8)
    with pytest.raises(OperatorError):
        CuckooHashTable(ways=2, slots_per_way=8, max_kicks=0)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=16),
                       st.integers(), min_size=1, max_size=200))
def test_cuckoo_behaves_like_dict_when_not_overflowing(mapping):
    table = CuckooHashTable(ways=4, slots_per_way=256)
    for k, v in mapping.items():
        table.put(k, v)
    if not table.overflow:
        for k, v in mapping.items():
            assert table.get(k) == v
        assert len(table) == len(mapping)
    else:
        resident = dict(table.items())
        overflowed = dict(table.overflow)
        combined = {**resident, **overflowed}
        assert set(combined) == set(mapping)


# --- shift-register LRU ---------------------------------------------------------------

def test_lru_miss_then_hit():
    lru = ShiftRegisterLru(4)
    assert not lru.lookup_or_insert(b"a")
    assert lru.lookup_or_insert(b"a")
    assert lru.hits == 1
    assert lru.misses == 1


def test_lru_evicts_oldest():
    lru = ShiftRegisterLru(2)
    for key in (b"a", b"b", b"c"):  # a falls off
        lru.lookup_or_insert(key)
    assert lru.resident == [b"c", b"b"]


def test_lru_promotion_is_true_lru():
    lru = ShiftRegisterLru(2)
    lru.lookup_or_insert(b"a")
    lru.lookup_or_insert(b"b")
    assert lru.lookup_or_insert(b"a")   # promote a over b
    lru.lookup_or_insert(b"c")          # evicts b, not a
    assert lru.resident == [b"c", b"a"]


def test_lookup_or_insert():
    lru = ShiftRegisterLru(4)
    assert not lru.lookup_or_insert(b"x")
    assert lru.lookup_or_insert(b"x")


def test_lru_depth_validation():
    with pytest.raises(OperatorError):
        ShiftRegisterLru(0)


def test_lru_resident_list():
    lru = ShiftRegisterLru(3)
    lru.lookup_or_insert(b"a")
    lru.lookup_or_insert(b"b")
    assert lru.resident == [b"b", b"a"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([b"a", b"b", b"c", b"d", b"e"]),
                min_size=1, max_size=100))
def test_lru_never_exceeds_depth(keys):
    lru = ShiftRegisterLru(3)
    for k in keys:
        lru.lookup_or_insert(k)
        assert len(lru.resident) <= 3


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.lists(st.lists(st.integers(min_value=0, max_value=9),
                         max_size=40), max_size=5))
def test_lru_advance_equals_the_probe_loop(depth, batches):
    """``advance(keys)`` leaves the register exactly as one
    ``lookup_or_insert`` per key does — content and recency — over any
    batch split, empty batches and batches shorter than the register
    included; it moves neither ``hits`` nor ``misses``."""
    batched, stepped = ShiftRegisterLru(depth), ShiftRegisterLru(depth)
    for batch in batches:
        keys = [bytes([k]) for k in batch]
        batched.advance(np.array(keys, dtype="V1"))
        for key in keys:
            stepped.lookup_or_insert(key)
        assert batched.resident == stepped.resident
    assert (batched.hits, batched.misses) == (0, 0)
    assert stepped.hits + stepped.misses == sum(map(len, batches))
