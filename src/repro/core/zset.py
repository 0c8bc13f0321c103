"""Z-sets: weighted relations, the delta algebra behind incremental views.

A **Z-set** maps row byte-images to signed integer weights.  An ordinary
relation is a Z-set whose weights are all ``+1``; a *delta* is a Z-set
whose positive entries are insertions and negative entries are
retractions.  The versioned write path (PR 4) already produces exactly
this encoding: an ``insert`` delta segment is a batch of ``+1`` rows, a
``delete`` segment a batch of ``-1`` rows, and an ``update`` segment a
``-1``/``+1`` pair per touched row id.  :mod:`repro.core.views` feeds
those segments through operator circuits; this module supplies the
algebra they compute over.

Design points:

* **Keys are row byte-images.**  A row is identified by the exact bytes
  of its packed record (:func:`~repro.common.records.key_image` over
  every column — the host's one key packing), so equality is byte
  equality — the same identity the repo's sha256 conformance
  checks use.  Two float rows that differ in the last ulp are different
  rows, by construction.
* **Always consolidated.**  :meth:`ZSet.add` drops entries the moment
  their weight reaches zero, so ``is_empty`` / ``entry_count`` are exact
  and iteration never visits phantom rows.
* **Canonical materialization.**  :meth:`ZSet.materialize` decodes the
  distinct rows in sorted-byte order, repeating each row ``weight``
  times.  Sorting on the byte image makes the canonical form independent
  of insertion order, so an incrementally maintained view and a full
  rescan hash identically (:meth:`ZSet.sha256`) whenever they contain
  the same multiset of rows.
* **Cheap integrity digests.**  :meth:`ZSet.digest` folds the per-row
  splitmix64 hashes of :func:`~repro.operators.hashing.hash_key_batch`
  into one 64-bit commutative checksum (``sum(weight * h(row))`` mod
  2^64).  Subscribers use it to verify convergence against the view
  without shipping or sorting the full image.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

from ..common.errors import QueryError
from ..common.records import Schema, key_image
from ..operators.hashing import hash_key_batch

_U64 = 1 << 64


class ZSet:
    """A consolidated mapping from row byte-images to signed weights."""

    __slots__ = ("schema", "weights")

    def __init__(self, schema: Schema,
                 weights: dict[bytes, int] | None = None):
        self.schema = schema
        self.weights: dict[bytes, int] = weights or {}

    # -- construction --------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: np.ndarray,
                  weight: int = 1) -> "ZSet":
        """A Z-set with every row of ``rows`` at ``weight``."""
        zset = cls(schema)
        if weight:
            for image in key_image(rows, schema.names).tolist():
                zset.add(image, weight)
        return zset

    def copy(self) -> "ZSet":
        return ZSet(self.schema, dict(self.weights))

    # -- algebra -------------------------------------------------------------
    def add(self, image: bytes, weight: int) -> None:
        """Accumulate ``weight`` for one row, consolidating on zero."""
        if not weight:
            return
        total = self.weights.get(image, 0) + weight
        if total:
            self.weights[image] = total
        else:
            del self.weights[image]

    def update(self, other: "ZSet") -> None:
        """In-place Z-set addition (``self += other``)."""
        if other.schema.names != self.schema.names:
            raise QueryError("cannot add Z-sets over different schemas")
        for image, weight in other.weights.items():
            self.add(image, weight)

    # -- inspection ----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.weights

    @property
    def entry_count(self) -> int:
        """Number of distinct rows carrying non-zero weight."""
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[tuple[bytes, int]]:
        return iter(self.weights.items())

    def decode(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows and their weights, both in dict (insertion)
        order — entry ``i`` of ``iter(self)`` is row ``i``."""
        rows = self.schema.from_bytes(b"".join(self.weights), copy=True)
        weights = np.fromiter(self.weights.values(), dtype=np.int64,
                              count=len(self.weights))
        return rows, weights

    # -- canonical image -----------------------------------------------------
    def canonical_bytes(self) -> bytes:
        """Sorted-byte-image concatenation, each row repeated ``weight``
        times.  Raises on negative weights: only a relation (a view's
        cumulative state), never a delta, has a canonical image."""
        parts: list[bytes] = []
        for image in sorted(self.weights):
            weight = self.weights[image]
            if weight < 0:
                raise QueryError(
                    f"negative weight {weight} in canonical image: this "
                    f"Z-set is a delta, not a relation")
            parts.append(image * weight)
        return b"".join(parts)

    def materialize(self) -> np.ndarray:
        """The multiset of rows in canonical (sorted byte-image) order."""
        return self.schema.from_bytes(self.canonical_bytes(), copy=True)

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def digest(self) -> int:
        """Order-independent 64-bit checksum: ``sum(w * h(row)) mod 2^64``
        over the per-row splitmix64 hashes of :func:`hash_key_batch`.
        Commutative in the deltas, so a subscriber can fold each pushed
        update into its running digest and compare against the view's."""
        if not self.weights:
            return 0
        images = list(self.weights)
        hashes = hash_key_batch(b"".join(images), self.schema.row_width)
        total = 0
        for image, h in zip(images, hashes.tolist()):
            total = (total + self.weights[image] * h) % _U64
        return total
