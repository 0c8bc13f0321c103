"""DISTINCT operator: cuckoo hash tables + shift-register LRU (paper §5.4).

Architecture (Figure 5): each tuple's key is first probed in the LRU cache
(hides hash-table pipeline latency / data hazards), then looked up in N
cuckoo tables in parallel.  Unseen keys are emitted immediately (fully
streaming) and inserted; keys that fail insertion after the eviction chain
land in the *overflow buffer*, "which is sent to the client to be
deduplicated in software".

Overflowed keys are emitted too (the hardware cannot suppress what it
cannot remember) and the node surfaces ``overflow_keys`` so the client-side
software dedup — on these same key columns, first row wins — can be
applied; the integration tests verify end-to-end exactness of that
contract.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Schema, key_image
from .base import RowOperator
from .cuckoo import CuckooHashTable
from .lru_cache import ShiftRegisterLru


class DistinctOperator(RowOperator):
    """Eliminate duplicate tuples on the given key columns."""

    fill_latency_cycles = 10  # deeper block: hash + table lookup stages

    def __init__(self, key_columns: list[str] | None = None,
                 ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32, lru_depth_per_way: int = 4):
        super().__init__("distinct")
        self.key_columns = list(key_columns) if key_columns else None
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        self.duplicates_dropped = 0
        self.overflow_count = 0
        #: O(1) mirror of the keys resident in the cuckoo table (kept in
        #: lock-step with every put/overflow) so the streaming probe is one
        #: hash lookup instead of a four-way table walk.
        self._resident: set[bytes] = set()

    def _bind(self, schema: Schema) -> Schema:
        if self.key_columns is None:
            self.key_columns = list(schema.names)
        schema.project(self.key_columns)  # validates
        return schema

    def _process(self, batch: np.ndarray) -> np.ndarray:
        n = len(batch)
        if n == 0:
            return batch
        image = key_image(batch, self.key_columns)
        keys = image.tolist()
        # Hash every key for every way in one vectorized pass; the per-row
        # scan below then runs on O(1) dict/set operations only.
        slots = self.table.batch_slots(image.data, image.dtype.itemsize)
        keep = np.zeros(n, dtype=bool)
        lru_probe = self.lru.lookup_or_insert
        resident = self._resident
        table = self.table
        overflow = table.overflow
        dropped = 0
        for i, key in enumerate(keys):
            if lru_probe(key) or key in resident:
                dropped += 1
                continue
            keep[i] = True
            resident.add(key)
            if not table.put(key, True, slots[i]):
                # The eviction chain pushed exactly one key (possibly this
                # one) out of residency into the overflow buffer.
                self.overflow_count += 1
                resident.discard(overflow[-1][0])
        self.duplicates_dropped += dropped
        return batch[keep]

    @property
    def distinct_seen(self) -> int:
        return len(self.table)

    def drain_overflow_keys(self) -> list[bytes]:
        """Overflowed keys for client-side software dedup (§5.4)."""
        return [key for key, _ in self.table.drain_overflow()]
