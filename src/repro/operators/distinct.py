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

On the host a batch — the node's whole scan, run once — is one array
transform until the tables first overflow.  Up to then every key the LRU register holds is also resident,
so the register decides nothing: a row survives exactly when its key is
new, and only new keys are hashed and inserted.  Once a key has been
forgotten it can be re-emitted, which depends on what the register holds
tuple by tuple — from the overflowing insertion on, the operator steps
through its rows one at a time for the rest of its life.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError
from ..common.records import (Schema, first_occurrence, key_image,
                              take_rows)
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
        #: hash lookup instead of a four-way table walk; only membership
        #: is read (the values are :func:`first_occurrence`'s).
        self._resident: dict[bytes, int] = {}

    def _bind(self, schema: Schema) -> Schema:
        if self.key_columns is None:
            self.key_columns = list(schema.names)
        schema.project(self.key_columns)  # validates
        return schema

    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(batch)
        image = key_image(batch, self.key_columns)
        keep = np.zeros(n, dtype=bool)
        done = 0
        if not self.overflow_count:
            done = self._admit_new(image, keep)
        if done < n:
            self._step(image[done:], keep[done:])
        picked = np.flatnonzero(keep)
        self.duplicates_dropped += n - len(picked)
        return take_rows(batch, picked), picked

    def _admit_new(self, image: np.ndarray, keep: np.ndarray) -> int:
        """The batch path, valid while nothing has overflowed: keep the
        rows that introduce a key and insert those keys, in one batch
        :meth:`~repro.operators.cuckoo.CuckooHashTable.insert`.  Returns
        the rows consumed — all of them, or up to and including the row
        whose insertion overflowed."""
        resident = self._resident
        new, _ = first_occurrence(image, resident)
        done = len(image)
        if len(new):
            fresh = image[new]
            new_keys = fresh.tolist()
            i = self.table.insert(
                new_keys, [True] * len(new_keys),
                self.table.way_slots(fresh.data, fresh.dtype.itemsize))
            if i < len(new_keys):
                # The first overflow: the keys after this one have not
                # been seen yet, and the evicted one is forgotten.
                self.overflow_count = 1
                for unseen in new_keys[i + 1:]:
                    del resident[unseen]
                del resident[self.table.overflow[-1][0]]
                new = new[:i + 1]
                done = int(new[i]) + 1
        keep[new] = True
        self.lru.advance(image[:done])
        return done

    def _step(self, image: np.ndarray, keep: np.ndarray) -> None:
        """The per-row path, the only correct one once a key has been
        forgotten: probe the register, then the tables, tuple by tuple."""
        # Hash every key for every way in one vectorized pass; the per-row
        # scan below then runs on O(1) dict operations only.
        slots = self.table.way_slots(image.data,
                                     image.dtype.itemsize).T.tolist()
        lru_probe = self.lru.lookup_or_insert
        resident = self._resident
        table = self.table
        overflow = table.overflow
        for i, key in enumerate(image.tolist()):
            if lru_probe(key) or key in resident:
                continue
            keep[i] = True
            resident[key] = i
            if not table.put(key, True, slots[i]):
                # The eviction chain pushed exactly one key (possibly this
                # one) out of residency into the overflow buffer.
                self.overflow_count += 1
                del resident[overflow[-1][0]]

    @property
    def distinct_seen(self) -> int:
        return len(self.table)

    def drain_overflow_keys(self) -> list[bytes]:
        """Overflowed keys for client-side software dedup (§5.4)."""
        return [key for key, _ in self.table.drain_overflow()]
