"""Cuckoo hash tables with an overflow buffer (paper §5.4).

"To guarantee full pipelining and constant lookup times, the hash table
that we implement does not handle collisions.  Instead, collisions are
written into a buffer, which is sent to the client to be deduplicated in
software.  To greatly reduce the collision likelihood, we implement cuckoo
hashing, with several hash tables that can be looked up in parallel."

This is a faithful functional model: N ways, parallel lookup, background
eviction chains bounded by ``max_kicks``, and an overflow list that the
node ships back to the client for software post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..common.errors import OperatorError
from .hashing import hash_key_batch


@dataclass
class _Entry:
    key: bytes
    value: object
    #: Per-way slot indices, hashed once at insertion: an entry carries
    #: them through every eviction, so nothing is ever re-hashed.
    slots: Sequence[int]


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
        #: One sparse ``slot -> entry`` map per way, so walking the
        #: residents costs O(size), not O(capacity).
        self._tables: list[dict[int, _Entry]] = [{} for _ in range(ways)]
        self.size = 0
        self.overflow: list[tuple[bytes, object]] = []
        self.kicks = 0

    @property
    def capacity(self) -> int:
        return self.ways * self.slots_per_way

    # -- hashing ----------------------------------------------------------------
    def way_slots(self, raw: bytes | memoryview, width: int) -> np.ndarray:
        """``(ways, n)`` slot indices for a packed batch of fixed-width keys
        — way ``w`` hashes with seed ``w``, one vectorized pass each."""
        return np.stack([
            hash_key_batch(raw, width, seed=way) % self.slots_per_way
            for way in range(self.ways)]).astype(np.intp)

    def batch_slots(self, raw: bytes | memoryview,
                    width: int) -> list[list[int]]:
        """Per-key rows of :meth:`way_slots` as plain lists.

        Hashing dominates the streaming operators' per-tuple cost, so the
        operators hash whole batches vectorized up front and thread the
        precomputed slot rows through :meth:`put` / :meth:`get`.  Called
        without a row, those hash the one key here as a batch of one.
        """
        return self.way_slots(raw, width).T.tolist()

    # -- lookup -----------------------------------------------------------------
    def _probe(self, key: bytes, slots: Sequence[int]) -> _Entry | None:
        """Parallel lookup across all ways."""
        for table, slot in zip(self._tables, slots):
            entry = table.get(slot)
            if entry is not None and entry.key == key:
                return entry
        return None

    def get(self, key: bytes,
            slots: Optional[Sequence[int]] = None) -> object | None:
        entry = self._probe(
            key, slots or self.batch_slots(key, len(key))[0])
        return entry.value if entry is not None else None

    def __contains__(self, key: bytes) -> bool:
        return self._probe(
            key, self.batch_slots(key, len(key))[0]) is not None

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
        slots = slots or self.batch_slots(key, len(key))[0]
        hit = self._probe(key, slots)
        if hit is not None:
            hit.value = value
            return True
        entry = _Entry(key, value, slots)
        tables = self._tables
        # Start insertion at the way whose slot is empty if any (parallel
        # lookup sees all ways at once), else way 0.
        way = 0
        for w, slot in enumerate(slots):
            if slot not in tables[w]:
                way = w
                break
        for _ in range(self.max_kicks):
            table = tables[way]
            slot = entry.slots[way]
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
        self.overflow.append((entry.key, entry.value))
        return False

    def owner_image(self) -> np.ndarray:
        """``(ways, slots_per_way)`` int32 image of a table whose values are
        row indices: the index resident in each slot, -1 where empty.

        This is the array the join probes — one fancy index per way is the
        paper's parallel lookup.
        """
        image = np.full((self.ways, self.slots_per_way), -1, dtype=np.int32)
        for way, table in enumerate(self._tables):
            if table:
                image[way, list(table)] = [e.value for e in table.values()]
        return image

    # -- iteration / draining ---------------------------------------------------------
    def items(self) -> Iterator[tuple[bytes, object]]:
        """Resident entries (excludes overflow), way by way."""
        for table in self._tables:
            for entry in table.values():
                yield entry.key, entry.value

    def drain_overflow(self) -> list[tuple[bytes, object]]:
        out = self.overflow
        self.overflow = []
        return out
