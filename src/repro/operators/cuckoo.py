"""Cuckoo hash tables with an overflow buffer (paper §5.4).

"To guarantee full pipelining and constant lookup times, the hash table
that we implement does not handle collisions.  Instead, collisions are
written into a buffer, which is sent to the client to be deduplicated in
software.  To greatly reduce the collision likelihood, we implement cuckoo
hashing, with several hash tables that can be looked up in parallel."

This is a faithful functional model: N ways, parallel lookup, background
eviction chains bounded by ``max_kicks``, and an overflow list that the
node ships back to the client for software post-processing.

An entry is an id into three lists the table holds once — keys, values
and the per-way slot row each key was hashed to at insertion — and each
way is a sparse ``slot -> entry id`` dict, so an evicted entry moves to
its next way without re-hashing and walking the residents costs O(size).
:meth:`put` is the insertion semantics; :meth:`insert` places a batch of
new keys exactly as one ``put`` per key would, one array pass per way.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from ..common.errors import OperatorError
from .hashing import hash_key_batch


class CuckooHashTable:
    """N-way cuckoo hash over byte keys with per-way parallel lookup."""

    def __init__(self, ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32):
        if ways <= 0 or slots_per_way <= 0:
            raise OperatorError(
                f"cuckoo table needs positive ways/slots, got "
                f"{ways}/{slots_per_way}")
        if max_kicks <= 0:
            raise OperatorError(f"max_kicks must be positive: {max_kicks}")
        self.ways = ways
        self.slots_per_way = slots_per_way
        self.max_kicks = max_kicks
        #: Way ``w`` hashes with seed ``w``: a column, so one
        #: :func:`hash_key_batch` call hashes every way.
        self._way_seeds = np.arange(ways)[:, None]
        #: Entry id -> key, value and per-way slot row.  Ids are never
        #: reused: an overflowed entry keeps its id, resident nowhere.
        self._keys: list[bytes] = []
        self._values: list[object] = []
        self._slots: list[Sequence[int]] = []
        #: One sparse ``slot -> entry id`` map per way.
        self._tables: list[dict[int, int]] = [{} for _ in range(ways)]
        self.size = 0
        self.overflow: list[tuple[bytes, object]] = []
        self.kicks = 0

    @property
    def capacity(self) -> int:
        return self.ways * self.slots_per_way

    # -- hashing ----------------------------------------------------------------
    def way_slots(self, raw: bytes | memoryview, width: int) -> np.ndarray:
        """``(ways, n)`` slot indices for a packed batch of fixed-width keys
        — way ``w`` hashes with seed ``w``, every way in one broadcast
        pass (the ways "can be looked up in parallel").

        Hashing dominates the operators' per-key cost, so they hash whole
        batches up front and thread each key's column through :meth:`put`
        / :meth:`get`.  Called without one, those hash the one key as a
        batch of one.
        """
        hashes = hash_key_batch(raw, width, seed=self._way_seeds)
        return (hashes % np.uint64(self.slots_per_way)).astype(np.intp)

    # -- lookup -----------------------------------------------------------------
    def _probe(self, key: bytes,
               slots: Sequence[int]) -> tuple[int | None, int]:
        """Parallel lookup across all ways: the resident entry id, if any,
        and the first way whose slot is empty, where an insertion starts
        (way 0 if none is)."""
        keys = self._keys
        free = None
        for way, (table, slot) in enumerate(zip(self._tables, slots)):
            entry = table.get(slot)
            if entry is None:
                if free is None:
                    free = way
            elif keys[entry] == key:
                return entry, 0
        return None, free or 0

    def get(self, key: bytes,
            slots: Optional[Sequence[int]] = None) -> object | None:
        entry, _ = self._probe(
            key, slots or self.way_slots(key, len(key))[:, 0].tolist())
        return self._values[entry] if entry is not None else None

    def __contains__(self, key: bytes) -> bool:
        return self._probe(key, self.way_slots(
            key, len(key))[:, 0].tolist())[0] is not None

    def __len__(self) -> int:
        return self.size

    # -- insert / update -----------------------------------------------------------
    def put(self, key: bytes, value: object,
            slots: Optional[Sequence[int]] = None) -> bool:
        """Insert or update; returns False if the entry overflowed.

        Overflowed entries are appended to :attr:`overflow` — they are *not*
        resident and subsequent lookups will miss, exactly like the
        hardware, where the overflow buffer is opaque to the pipeline.
        ``slots`` may carry the key's precomputed per-way slot indices.
        """
        slots = slots or self.way_slots(key, len(key))[:, 0].tolist()
        entry, way = self._probe(key, slots)
        if entry is not None:
            self._values[entry] = value
            return True
        keys, tables = self._keys, self._tables
        entry = len(keys)
        keys.append(key)
        self._values.append(value)
        entry_slots = self._slots
        entry_slots.append(slots)
        for _ in range(self.max_kicks):
            table = tables[way]
            slot = entry_slots[entry][way]
            resident = table.get(slot)
            table[slot] = entry
            if resident is None:
                self.size += 1
                return True
            # The resident entry is evicted and moves to the next way
            # ("Upon the eviction from one of the tables, the evicted entry
            # is inserted into the next hash table with a different
            # function", §5.4).
            entry = resident
            way = (way + 1) % self.ways
            self.kicks += 1
        self.overflow.append((keys[entry], self._values[entry]))
        return False

    def insert(self, keys: Sequence[bytes], values: Sequence[object],
               slots: np.ndarray) -> int:
        """``put`` each of ``keys`` (distinct, none resident) with its value
        and its column of ``slots`` (``(ways, n)``, as :meth:`way_slots`
        returns) in row order, stopping after the first ``put`` that
        overflows.  Returns how many rows went in before it: the index of
        the row whose ``put`` overflowed, or ``len(keys)``.

        Up to the first row that finds every way's slot taken, a ``put``
        places its key in the first way with a free slot and no eviction
        runs.  An occupied slot then never becomes empty, so way by way
        the lowest-index unplaced row whose slot in that way is free takes
        it — one ``np.minimum.at`` per way decides every such row at once.
        That first row, and every row after it, goes through ``put`` and
        its eviction chain.
        """
        n = len(keys)
        unplaced = np.arange(n)
        claims = []
        for table, column in zip(self._tables, slots):
            if not len(unplaced):
                break
            column = column[unplaced]
            # Slot -> the lowest unplaced row hashed to it (n: none, or
            # the slot is taken).
            claimer = np.full(self.slots_per_way, n)
            np.minimum.at(claimer, column, unplaced)
            if table:
                claimer[np.fromiter(table, np.intp, len(table))] = n
            won = claimer[claimer < n]
            won.sort()
            claims.append(won)
            unplaced = unplaced[claimer[column] != unplaced]
        # Rows before the first one left without a free slot are placed.
        placed = int(unplaced[0]) if len(unplaced) else n
        base = len(self._keys)
        for table, column, won in zip(self._tables, slots, claims):
            won = won[:np.searchsorted(won, placed)]
            table.update(zip(column[won].tolist(), (won + base).tolist()))
        self._keys.extend(keys[:placed])
        self._values.extend(values[:placed])
        self._slots.extend(slots[:, :placed].T.tolist())
        self.size += placed
        put = self.put
        for i in range(placed, n):
            if not put(keys[i], values[i], slots[:, i].tolist()):
                return i
        return n

    def owner_image(self) -> np.ndarray:
        """``(ways, slots_per_way)`` int32 image of a table whose values are
        row indices: the index resident in each slot, -1 where empty.

        This is the array the join probes — one fancy index per way is the
        paper's parallel lookup.
        """
        image = np.full((self.ways, self.slots_per_way), -1, dtype=np.int32)
        values = np.asarray(self._values, dtype=np.int64)
        for way, table in enumerate(self._tables):
            if table:
                image[way, np.fromiter(table, np.intp, len(table))] = values[
                    np.fromiter(table.values(), np.intp, len(table))]
        return image

    # -- iteration / draining ---------------------------------------------------------
    def items(self) -> Iterator[tuple[bytes, object]]:
        """Resident entries (excludes overflow), way by way."""
        for table in self._tables:
            for entry in table.values():
                yield self._keys[entry], self._values[entry]

    def drain_overflow(self) -> list[tuple[bytes, object]]:
        out = self.overflow
        self.overflow = []
        return out
