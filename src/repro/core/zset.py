"""Z-sets: weighted relations, the delta algebra behind incremental views.

A **Z-set** maps rows to signed integer weights.  An ordinary relation is
a Z-set whose weights are all ``+1``; a *delta* is a Z-set whose positive
entries are insertions and negative entries retractions — exactly what
the versioned write path commits (an ``insert`` segment is a batch of
``+1`` rows, a ``delete`` of ``-1``, an ``update`` a ``-1``/``+1`` pair
per touched row id).  :mod:`repro.core.views` feeds those segments
through operator circuits; this module is the algebra they compute over.

* **Columnar, keyed by row byte-images.**  A Z-set is an array of
  distinct row images (:func:`~repro.common.records.key_image` over every
  column — the host's one key packing) beside an ``int64`` weight
  vector; equality is byte equality, the identity the repo's sha256
  conformance checks use, and building, adding, filtering and hashing
  are array transforms, never a Python step per row.
* **Always consolidated.**  The constructor merges equal rows
  (:func:`~repro.common.records.first_occurrence` + ``np.add.at``) and
  drops zero weights, so ``is_empty`` / ``entry_count`` are exact and
  ``rows`` never shows a phantom.
* **One accumulator form.**  A Z-set that is added to keeps the streaming
  ``image -> slot`` map of :func:`first_occurrence`: a delta costs one
  lookup pass over *its* rows, a new row takes the next slot (slot order
  is first-arrival order), a row retracted to zero leaves a dead slot
  that its own return revives, and dead slots are compacted away once
  they outnumber the live ones.
  :meth:`ZSet.stage` computes the next arrays and changes nothing until
  the ``commit`` it returns runs — what lets a refused refresh leave
  every view as it was.
* **Canonical materialization.**  :meth:`ZSet.materialize` sorts the
  distinct rows by byte image and repeats each ``weight`` times, so a
  maintained view and a full rescan hash identically
  (:meth:`ZSet.sha256`) whenever they hold the same multiset of rows.
* **Cheap integrity digests.**  :meth:`ZSet.digest` is the commutative
  checksum ``sum(weight * h(row))`` mod 2^64 over the splitmix64 hashes
  of :func:`~repro.operators.hashing.hash_key_batch`: convergence is
  verified without shipping or sorting the full image.
"""

from __future__ import annotations

import hashlib
from itertools import compress, count, repeat
from typing import Callable, Optional

import numpy as np

from ..common.errors import QueryError
from ..common.records import (Schema, SlotMap, first_occurrence,
                              key_image)
from ..operators.hashing import hash_key_batch


def stage_slots(seen: SlotMap, keys: np.ndarray):
    """``(slot, fresh)``: the slot of every key under the streaming map
    ``seen``, which is read but not extended — a key it lacks is numbered
    on from ``len(seen)`` in first-seen order and handed back in ``fresh``
    for the caller to ``seen.update(fresh)`` if and when it commits."""
    listed = keys.tolist()
    slot = np.fromiter(map(seen.get, listed, repeat(-1)),
                       dtype=np.intp, count=len(listed))
    arrived = list(compress(listed, (slot < 0).tolist()))
    fresh = dict(zip(dict.fromkeys(arrived), count(len(seen))))
    slot[slot < 0] = np.fromiter(map(fresh.__getitem__, arrived),
                                 dtype=np.intp, count=len(arrived))
    return slot, fresh


class ZSet:
    """Distinct row images beside their signed weights, always
    consolidated."""

    __slots__ = ("schema", "_images", "_weights", "_seen")

    def __init__(self, schema: Schema, images: Optional[np.ndarray] = None,
                 weights: np.ndarray | int = 1):
        """The consolidation of ``images`` (the :func:`key_image` of whole
        rows) at ``weights``; empty without."""
        self.schema = schema
        if images is None:
            images = np.zeros(0, dtype=f"V{schema.row_width}")
        first, group = first_occurrence(images)
        total = np.zeros(len(first), dtype=np.int64)
        np.add.at(total, group, weights)
        self._fill(images[first[total != 0]], total[total != 0])

    def _fill(self, images: np.ndarray, weights: np.ndarray) -> None:
        """Hold exactly these live entries (slot map: on first stage)."""
        self._images, self._weights = images, weights
        self._seen: Optional[SlotMap] = None

    @classmethod
    def from_rows(cls, schema: Schema, rows: np.ndarray,
                  weights: np.ndarray | int = 1) -> "ZSet":
        """A Z-set with every row of ``rows`` at ``weights``."""
        return cls(schema, key_image(rows, schema.names), weights)

    def select(self, mask: np.ndarray) -> "ZSet":
        """The entries a boolean ``mask`` over :attr:`rows` keeps."""
        out = ZSet.__new__(ZSet)
        out.schema = self.schema
        out._fill(self.images[mask], self.weights[mask])
        return out

    def copy(self) -> "ZSet":
        return self.select(np.ones(self.entry_count, dtype=bool))

    # -- algebra -------------------------------------------------------------
    def stage(self, delta: "ZSet") -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, Callable]:
        """Z-set addition, computed but not applied: ``(slot, images,
        weights, commit)`` — the slot of each of ``delta.rows`` (a new row
        takes the next one, in delta order), every slot's row image and
        weight as they will be (dead slots, weight 0, still in place) and
        the function that swaps them in.  ``commit()`` compacts the dead
        slots away once they outnumber the live ones and then returns
        the slots it kept, for parallel per-slot arrays to be indexed
        with; otherwise ``None``."""
        if delta.schema.names != self.schema.names:
            raise QueryError("cannot add Z-sets over different schemas")
        size = len(self._images)
        if self._seen is None:
            self._seen = dict(zip(self._images.tolist(), range(size)))
        listed = delta.images.tolist()
        slot = np.fromiter(map(self._seen.get, listed, repeat(-1)),
                           dtype=np.intp, count=len(listed))
        new = slot < 0                  # distinct rows: a slot each
        images = np.concatenate([self._images, delta.images[new]])
        slot[new] = np.arange(size, len(images))
        weights = np.concatenate([self._weights,
                                  np.zeros(len(images) - size, np.int64)])
        weights[slot] += delta.weights

        def commit() -> Optional[np.ndarray]:
            self._images, self._weights = images, weights
            self._seen.update(zip(compress(listed, new.tolist()),
                                  range(size, len(images))))
            if 2 * np.count_nonzero(weights) >= len(weights):
                return None
            keep = np.flatnonzero(weights)
            self._fill(images[keep], weights[keep])
            return keep
        return slot, images, weights, commit

    def update(self, other: "ZSet") -> None:
        """In-place Z-set addition (``self += other``)."""
        self.stage(other)[-1]()

    # -- inspection ----------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """The non-zero weights, parallel to :attr:`rows`."""
        weights = self._weights
        return weights if weights.all() else weights[weights != 0]

    @property
    def images(self) -> np.ndarray:
        """The byte images of the distinct rows carrying non-zero weight,
        in slot (first-arrival) order."""
        weights = self._weights
        return self._images if weights.all() else self._images[weights != 0]

    @property
    def rows(self) -> np.ndarray:
        """:attr:`images` as a structured array of the schema."""
        return self.images.view(self.schema.dtype)

    @property
    def is_empty(self) -> bool:
        return not self._weights.any()

    @property
    def entry_count(self) -> int:
        """Number of distinct rows carrying non-zero weight."""
        return int(np.count_nonzero(self._weights))

    @property
    def total_weight(self) -> int:
        return int(self._weights.sum())

    # -- canonical image -----------------------------------------------------
    def materialize(self) -> np.ndarray:
        """The multiset of rows in canonical (sorted byte-image) order;
        only a relation, never a delta, has one (negative weights raise)."""
        order = np.argsort(self.images, kind="stable")
        weights = self.weights[order]
        if (weights < 0).any():
            raise QueryError(
                f"negative weight {weights[weights < 0][0]} in canonical "
                f"image: this Z-set is a delta, not a relation")
        return np.repeat(self.images[order], weights).view(self.schema.dtype)

    def canonical_bytes(self) -> bytes:
        """:meth:`materialize` as one byte image."""
        return self.materialize().tobytes()

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def digest(self) -> int:
        """``sum(w * h(row)) mod 2^64`` over :func:`hash_key_batch`: one
        wrapping ``uint64`` dot product, commutative in the deltas."""
        hashes = hash_key_batch(self.images.tobytes(), self.schema.row_width)
        return int(hashes @ self.weights.astype(np.uint64))
