"""Versioned write path: MVCC snapshots, delta segments, compaction.

The paper positions Farview as a buffer-pool replacement for *database
engines* (§1), but its evaluation is write-once: tables are uploaded and
every later verb is read-only.  The DSM-DB vision paper (PAPERS.md)
argues that concurrent readers and writers over disaggregated memory are
the defining systems problem of the architecture.  This module adds the
missing write path on top of the unchanged read stack:

* :class:`VersionChain` — what one shard of a table
  (:class:`~repro.core.table.Shard`) owns on its node: one immutable
  *base segment* plus an ordered list of immutable copy-on-write
  :class:`DeltaSegment`\\ s, all living in node DRAM through the
  ordinary Mmu/allocator path.  A monotone **epoch counter** advances
  on every committed write batch.  A plain table is the chain that was
  never written: base segment only, epoch 0, no deltas.
* **MVCC snapshots** — ``view_at(epoch)`` resolves the chain prefix
  visible at an epoch into an immutable :class:`VersionView`.  Readers
  *pin* the epoch they start under; segments retired by a later
  compaction are not freed until every pin that could still read them is
  released, so a scan that overlaps a compaction stays byte-exact.
* **Delta segments** — ``insert`` deltas append new rows, ``update``
  deltas carry full new row images keyed by a stable 8-byte row id, and
  ``delete`` deltas carry row ids only.  Rows are identified by the
  hidden ``__rowid`` column (assigned once, never reused), so the visible
  row order — ascending row id: base order, then insertion order — is
  deterministic and survives compaction, which is what makes snapshot
  scans sha256-reproducible.
* **Compaction** — folding the chain into a fresh base segment holding
  exactly the visible rows.  Compaction changes *organization*, never
  *contents*: the epoch does not advance, but epochs older than the
  compaction horizon (``oldest_epoch``) become unreadable for new scans
  (in-flight pinned scans keep their segments alive via the retire
  barrier).

Every table is such a chain per shard.  The node-side execution of
scans (delta-aware merge ingest when the pinned view holds deltas) and
of the offloaded write verbs lives in
:meth:`repro.core.node.FarviewNode.serve_farview` (given a
:class:`VersionView`) and the ``serve_*_delta`` / ``serve_compact`` verbs;
the client verbs are on :class:`repro.core.api.ClusterClient`
(two-phase epoch broadcast, so a snapshot is consistent across every
shard of the handle).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from ..common.errors import QueryError
from ..common.records import Column, Schema

if TYPE_CHECKING:
    from .table import FTable

#: Hidden column carrying the stable row identity inside delta segments.
ROWID_COLUMN = "__rowid"


def delta_schema(schema: Schema) -> Schema:
    """Schema of insert/update delta segments: row id + full row image."""
    return Schema([Column(ROWID_COLUMN, "uint64", 8)] + list(schema.columns))


def delete_schema() -> Schema:
    """Schema of delete delta segments: row ids only."""
    return Schema([Column(ROWID_COLUMN, "uint64", 8)])


def require_versionable(schema: Schema) -> None:
    """Every table is a version chain, so every schema leaves the
    hidden row-id column to the write path."""
    if ROWID_COLUMN in schema.names:
        raise QueryError(
            f"column name {ROWID_COLUMN!r} is reserved for the versioned "
            f"write path")


def encode_value(column: Column, value: object):
    """Coerce a literal to ``column``'s storage type (SET / VALUES)."""
    if column.kind == "char":
        if isinstance(value, str):
            raw = value.encode("utf-8")
        elif isinstance(value, (bytes, bytearray)):
            raw = bytes(value)
        else:
            raise QueryError(
                f"column {column.name!r} is char({column.width}); got "
                f"{type(value).__name__} {value!r}")
        if len(raw) > column.width:
            raise QueryError(
                f"value {value!r} does not fit char({column.width}) column "
                f"{column.name!r}")
        return raw
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                         np.floating)):
        raise QueryError(
            f"column {column.name!r} is {column.kind}; got "
            f"{type(value).__name__} {value!r}")
    if column.kind in ("int64", "uint64"):
        if isinstance(value, (float, np.floating)):
            if not float(value).is_integer():
                raise QueryError(
                    f"column {column.name!r} is {column.kind}; got "
                    f"non-integral {value!r}")
            value = int(value)
        lo, hi = ((0, 2 ** 64 - 1) if column.kind == "uint64"
                  else (-(2 ** 63), 2 ** 63 - 1))
        if not lo <= int(value) <= hi:
            raise QueryError(
                f"value {value!r} out of range for {column.kind} column "
                f"{column.name!r}")
    return value


def rows_from_literals(schema: Schema,
                       tuples: Sequence[Sequence[object]]) -> np.ndarray:
    """Build a structured row array from SQL ``VALUES`` literal tuples."""
    if not tuples:
        raise QueryError("INSERT needs at least one VALUES tuple")
    rows = schema.empty(len(tuples))
    for i, values in enumerate(tuples):
        if len(values) != len(schema.columns):
            raise QueryError(
                f"VALUES tuple {i} has {len(values)} items; schema has "
                f"{len(schema.columns)} columns")
        for column, value in zip(schema.columns, values):
            rows[column.name][i] = encode_value(column, value)
    return rows


@dataclass(frozen=True)
class DeltaSegment:
    """One committed copy-on-write write batch in node DRAM.

    ``table`` holds the delta image (``delta_schema`` for insert/update,
    ``delete_schema`` for delete); the segment is immutable once
    committed — later writes append new segments, never touch old ones.
    """

    epoch: int
    kind: str                     # "insert" | "update" | "delete"
    table: FTable
    num_rows: int

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "update", "delete"):
            raise QueryError(f"unknown delta kind {self.kind!r}")


@dataclass(frozen=True)
class VersionView:
    """The immutable chain prefix visible at one epoch.

    Resolved once at scan start (under a pin), so a writer appending new
    segments — or a compaction swapping the base — mid-scan can never
    change what this view reads.
    """

    name: str
    epoch: int
    schema: Schema
    base: FTable
    base_rowids: np.ndarray = field(repr=False)
    deltas: tuple[DeltaSegment, ...] = ()

    @property
    def segment_tables(self) -> list[FTable]:
        """Base + delta segment handles, scan order."""
        return [self.base] + [d.table for d in self.deltas]

    @property
    def delta_bytes(self) -> int:
        return sum(d.table.size_bytes for d in self.deltas)

    @property
    def delta_rows(self) -> int:
        return sum(d.num_rows for d in self.deltas)

    @property
    def scan_bytes(self) -> int:
        """Bytes a delta-aware scan must ingest: base + every delta."""
        return self.base.size_bytes + self.delta_bytes

    def materialize(self, read: Callable[[FTable], bytes]
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply the chain to the base image: ``(visible_rows, rowids)``.

        ``read(table)`` supplies each segment's byte image (``Mmu.image``
        on the node, gathered RDMA reads on the client).  Rows come
        back in ascending row-id order — the canonical visible order every
        snapshot scan and compaction reproduces.

        Rows are patched as byte blocks: each visible row is one
        ``V<row_width>`` element, and an insert or update delta is read as
        its 8-byte row id beside such an element (``delta_schema``).
        """
        row = np.dtype(f"V{self.schema.row_width}")
        delta_record = np.dtype([(ROWID_COLUMN, "<u8"), ("row", row)])
        rows = self.schema.from_bytes(read(self.base), copy=True).view(row)
        ids = self.base_rowids.copy()
        for delta in self.deltas:
            image = read(delta.table)
            if delta.kind == "delete":
                gone = delete_schema().from_bytes(image)[ROWID_COLUMN]
                keep = ~np.isin(ids, gone)
                rows, ids = rows[keep], ids[keep]
                continue
            block = np.frombuffer(image, dtype=delta_record)
            targets, payload = block[ROWID_COLUMN], block["row"]
            if delta.kind == "insert":
                rows = np.concatenate([rows, payload])
                ids = np.concatenate([ids, targets])
            else:
                # Update: patch in place by row id.  Row ids are always
                # ascending (base order, then insertion order; deletes
                # and compaction preserve it), so one vectorized
                # searchsorted replaces a per-row dict probe.
                pos = np.searchsorted(ids, targets)
                valid = pos < len(ids)
                valid[valid] = ids[pos[valid]] == targets[valid]
                rows[pos[valid]] = payload[valid]
        return rows.view(self.schema.dtype), ids


@dataclass
class _RetiredBatch:
    """Segments superseded by a compaction, awaiting their last reader."""

    tables: list[FTable]
    blocking_tokens: set[int]


class ChainListener:
    """Observer of one version chain's commit and compaction events.

    Callbacks fire synchronously inside the mutation (no simulator
    yields), so a listener sees every epoch exactly once and in order —
    including the no-op bumps of the two-phase epoch broadcast, whose
    commit phase must stay yield-free.
    Listeners must not mutate the chain from a callback.

    The incremental view engine (:mod:`repro.core.views`) is the first
    client: its per-chain trackers queue committed segments for the next
    refresh (their pins keep a compaction from freeing what it still has
    to read).
    """

    def on_commit(self, table: "VersionChain",
                  segment: Optional[DeltaSegment]) -> None:
        """One epoch committed; ``segment`` is ``None`` for a no-op bump."""

    def on_compaction(self, table: "VersionChain") -> None:
        """The chain's base was swapped and its delta prefix folded away."""


class VersionChain:
    """One shard's version chain: a base segment plus committed deltas.

    The body behind every :class:`~repro.core.table.Shard`.  A chain
    that was never written is base segment only, epoch 0, row ids never
    materialised; the write verbs of :class:`~repro.core.api.ClusterClient`
    append segments and bump the epoch of a writable table's chains.
    What a scan does follows from the deltas visible at its pinned
    epoch.  Single writer per chain: commits are not synchronized
    between concurrent writer processes.
    """

    def __init__(self, name: str, schema: Schema, base: FTable):
        self.name = name
        self.schema = schema
        self.base = base
        #: Row ids of the base segment; ``None`` until first needed (a
        #: fresh base holds rows ``0..n-1`` in order).
        self._base_rowids: np.ndarray | None = None
        self.deltas: list[DeltaSegment] = []
        #: Current committed epoch; ``snapshot()`` returns it.
        self.epoch = 0
        #: Oldest epoch still resolvable by a *new* scan (compaction floor).
        self.oldest_epoch = 0
        self.compactions = 0
        #: Visible row count per readable epoch (planner statistics).
        self._visible_by_epoch: dict[int, int] = {0: base.num_rows}
        self._next_rowid = base.num_rows
        self._seg_serial = itertools.count(1)
        self._pin_tokens = itertools.count(1)
        self._pins: dict[int, int] = {}       # token -> pinned epoch
        self._retired: list[_RetiredBatch] = []
        self._listeners: list[ChainListener] = []

    # -- introspection -----------------------------------------------------
    @property
    def base_rowids(self) -> np.ndarray:
        if self._base_rowids is None:
            self._base_rowids = np.arange(self.base.num_rows,
                                          dtype=np.uint64)
        return self._base_rowids

    @property
    def size_bytes(self) -> int:
        """Pool DRAM held by the live chain (retired segments excluded)."""
        return self.base.size_bytes + self.delta_bytes

    @property
    def num_rows(self) -> int:
        """Visible rows at the current epoch."""
        return self._visible_by_epoch[self.epoch]

    @property
    def delta_bytes(self) -> int:
        return sum(d.table.size_bytes for d in self.deltas)

    def visible_rows_at(self, epoch: int) -> int:
        self._require_epoch(epoch)
        return self._visible_by_epoch[epoch]

    def next_segment_name(self) -> str:
        return f"{self.name}#s{next(self._seg_serial)}"

    def __repr__(self) -> str:
        return (f"VersionChain({self.name!r}, epoch {self.epoch}, "
                f"{self.num_rows} visible rows, {len(self.deltas)} deltas, "
                f"{self.compactions} compactions)")

    # -- snapshots ---------------------------------------------------------
    def _require_epoch(self, epoch: int) -> None:
        if not self.oldest_epoch <= epoch <= self.epoch:
            raise QueryError(
                f"epoch {epoch} of {self.name!r} is not readable; chain "
                f"covers [{self.oldest_epoch}, {self.epoch}] (older epochs "
                f"were folded away by compaction)")

    def view_at(self, epoch: int) -> VersionView:
        """Resolve the chain prefix visible at ``epoch``."""
        self._require_epoch(epoch)
        return VersionView(
            name=self.name, epoch=epoch, schema=self.schema, base=self.base,
            base_rowids=self.base_rowids,
            deltas=tuple(d for d in self.deltas if d.epoch <= epoch))

    def pin(self, epoch: int) -> int:
        """Register a reader at ``epoch``; returns the pin token."""
        self._require_epoch(epoch)
        token = next(self._pin_tokens)
        self._pins[token] = epoch
        return token

    def unpin(self, token: int) -> list[FTable]:
        """Release a pin; returns retired segments now safe to free."""
        if token not in self._pins:
            raise QueryError(f"unknown pin token {token} on {self.name!r}")
        del self._pins[token]
        freed: list[FTable] = []
        still_blocked: list[_RetiredBatch] = []
        for batch in self._retired:
            batch.blocking_tokens.discard(token)
            if batch.blocking_tokens:
                still_blocked.append(batch)
            else:
                freed.extend(batch.tables)
        self._retired = still_blocked
        return freed

    @property
    def active_pins(self) -> int:
        return len(self._pins)

    def drain_segments(self) -> list[FTable]:
        """Every segment this chain still owns (live + retired), for
        :meth:`~repro.core.api.ClusterClient.drop_table`.  Leaves the
        handle empty; only call with no active pins."""
        if self._pins:
            raise QueryError(
                f"cannot drain {self.name!r}: {len(self._pins)} scan(s) "
                f"still pin its segments")
        tables = ([self.base] + [d.table for d in self.deltas]
                  + [t for batch in self._retired for t in batch.tables])
        self.deltas = []
        self._retired = []
        return tables

    @property
    def retired_segments(self) -> int:
        return sum(len(b.tables) for b in self._retired)

    # -- change notification ----------------------------------------------
    def add_listener(self, listener: ChainListener) -> None:
        """Subscribe ``listener`` to this chain's commits/compactions."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: ChainListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    @property
    def num_listeners(self) -> int:
        return len(self._listeners)

    # -- write-path bookkeeping -------------------------------------------
    def allocate_rowids(self, count: int) -> np.ndarray:
        """Reserve ``count`` fresh row ids (monotone, never reused)."""
        start = self._next_rowid
        self._next_rowid += count
        return np.arange(start, start + count, dtype=np.uint64)

    def commit_delta(self, kind: str, table: Optional[FTable],
                     num_rows: int, visible_change: int = 0) -> int:
        """Commit one prepared write batch; returns the new epoch.

        ``table=None`` commits a **no-op epoch bump** — used by shards
        a write left untouched, so every shard's epoch stays equal to
        the table's epoch (the second phase of the epoch broadcast).
        """
        self.epoch += 1
        segment: Optional[DeltaSegment] = None
        if table is not None:
            segment = DeltaSegment(self.epoch, kind, table, num_rows)
            self.deltas.append(segment)
        self._visible_by_epoch[self.epoch] = (
            self._visible_by_epoch[self.epoch - 1] + visible_change)
        for listener in self._listeners:
            listener.on_commit(self, segment)
        return self.epoch

    def retire_for_compaction(self, new_base: FTable,
                              new_rowids: np.ndarray) -> list[FTable]:
        """Swap in the compacted base; returns segments safe to free *now*.

        Old segments still needed by in-flight pinned readers are parked
        in a retired batch keyed by the pins active at this moment; they
        are handed back by :meth:`unpin` once the last such reader ends.
        The epoch does not advance (contents are unchanged) but the
        readable floor rises to the current epoch.
        """
        old = [self.base] + [d.table for d in self.deltas]
        self.base = new_base
        self._base_rowids = np.asarray(new_rowids, dtype=np.uint64)
        self.deltas = []
        self.oldest_epoch = self.epoch
        self._visible_by_epoch = {self.epoch: new_base.num_rows}
        self.compactions += 1
        for listener in self._listeners:
            listener.on_compaction(self)
        if self._pins:
            self._retired.append(
                _RetiredBatch(old, set(self._pins)))
            return []
        return old
