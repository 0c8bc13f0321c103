"""Shift-register LRU cache hiding hash-table latency (paper §5.4).

The distinct/group-by hash table is pipelined: an update issued for tuple i
is not visible when tuple i+1 (or i+k, for pipeline depth k) performs its
lookup, creating a data hazard — two equal back-to-back keys would both be
reported as "new".  The paper hides the hazard with a small true-LRU cache
"implemented with a shift register, which adds a negligible latency to the
data streams (the amount depends on the number of cuckoo hash tables)".

We model exactly that: a fixed-depth register of recent keys.  A hit
anywhere promotes the key to most-recent (true LRU); insertion shifts the
oldest key out.  Capacity = depth per cuckoo way x number of ways, as the
hardware sizes it to cover the table lookup latency.

The register is held as an insertion-ordered dict (oldest first) rather
than a literal shift register: lookups and promotions are O(1) hash
operations instead of list scans.  Hit/miss/eviction behaviour is identical
for the lookup-then-insert protocol; the one divergence is that ``insert``
of an already-resident key promotes it instead of storing a duplicate copy
(true-LRU semantics; the old register could briefly hold the key twice).

DISTINCT and GROUP BY move the register one DRAM burst at a time with
:meth:`ShiftRegisterLru.advance`: a true LRU of depth *d* holds the *d* most
recently used distinct keys, so its state after a burst is read off the
burst's tail instead of being stepped once per tuple.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ..common.errors import OperatorError


class ShiftRegisterLru:
    """Fixed-capacity true-LRU over byte keys, shift-register semantics."""

    def __init__(self, depth: int):
        if depth <= 0:
            raise OperatorError(f"LRU depth must be positive: {depth}")
        self.depth = depth
        self._reg: dict[bytes, None] = {}  # insertion order: oldest first
        #: Outcomes of the single-key probe (:meth:`lookup_or_insert`)
        #: only — see :meth:`advance`.
        self.hits = 0
        self.misses = 0

    def lookup_or_insert(self, key: bytes) -> bool:
        """Combined probe+insert as the hardware does in one pass."""
        reg = self._reg
        if key in reg:
            del reg[key]
            reg[key] = None
            self.hits += 1
            return True
        self.misses += 1
        reg[key] = None
        if len(reg) > self.depth:
            del reg[next(iter(reg))]
        return False

    def advance(self, keys: np.ndarray) -> None:
        """Leave the register as ``lookup_or_insert(key)`` for every element
        of the :func:`~repro.common.records.key_image` array ``keys`` in
        order would — same content, same recency.

        The ``depth`` most recently used distinct keys are the first
        ``depth`` distinct keys met walking back from the end of ``keys``
        (only that tail is read, widened until it holds that many), then
        back through the old register.  ``hits`` / ``misses`` do not move:
        how many of a batch's probes would have hit is a stack-distance
        count with no array form, and nothing in the model reads it.
        """
        depth, width = self.depth, self.depth
        while True:
            recent = dict.fromkeys(reversed(keys[-width:].tolist()))
            if len(recent) >= depth or width >= len(keys):
                break
            width *= 4
        recent.update(dict.fromkeys(reversed(self._reg)))
        self._reg = dict.fromkeys(reversed(list(islice(recent, depth))))

    @property
    def resident(self) -> list[bytes]:
        """Resident keys, most-recent first."""
        return list(reversed(self._reg))
