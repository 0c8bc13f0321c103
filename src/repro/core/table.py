"""Table handles: the allocated segment (:class:`FTable`, the paper's
§4.2 argument to the data API and the only thing a memory node speaks)
and the one catalog handle above it (:class:`Table`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..common.errors import CatalogError, QueryError
from ..common.records import Schema
from .versioning import VersionChain

if TYPE_CHECKING:
    from .partition import PartitionSpec


@dataclass
class FTable:
    """A table stored (or to be stored) in Farview's buffer pool.

    Mirrors the paper's ``FTable`` argument to the data API: the client
    holds the catalog information (schema, row count, virtual address)
    needed to issue reads against the disaggregated memory.
    """

    name: str
    schema: Schema
    num_rows: int
    vaddr: int | None = None          # set by alloc_table_mem
    domain: int | None = None         # owning protection domain (§4.4)
    encrypted: bool = False
    key: bytes | None = None
    nonce: bytes | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table needs a non-empty name")
        if self.num_rows < 0:
            raise CatalogError(f"negative row count: {self.num_rows}")
        if self.encrypted and (self.key is None or self.nonce is None):
            raise CatalogError(
                f"encrypted table {self.name!r} needs key and nonce")

    @property
    def size_bytes(self) -> int:
        return self.num_rows * self.schema.row_width

    @property
    def allocated(self) -> bool:
        return self.vaddr is not None

    def require_allocated(self) -> int:
        if self.vaddr is None:
            raise CatalogError(
                f"table {self.name!r} has no disaggregated memory; call "
                f"alloc_table_mem first")
        return self.vaddr

    def validate_rows(self, rows: np.ndarray) -> None:
        if rows.dtype != self.schema.dtype:
            raise QueryError(
                f"rows dtype {rows.dtype} does not match table schema "
                f"{self.schema.dtype}")
        if len(rows) != self.num_rows:
            raise QueryError(
                f"table {self.name!r} declared {self.num_rows} rows, got "
                f"{len(rows)}")

    def __repr__(self) -> str:
        loc = f"vaddr={self.vaddr:#x}" if self.allocated else "unallocated"
        return (f"FTable({self.name!r}, {self.num_rows} rows x "
                f"{self.schema.row_width} B, {loc})")


@dataclass
class Shard:
    """One node's fragment of a table: a version chain plus its copies.

    ``incarnation`` stamps a shard with its node's incarnation when its
    bytes were written; a later crash makes the stamp stale and the copy
    is never served again (fail-stop with amnesia).  **The stamp rule:**
    a table's shard is stamped iff the table is replicated — it then has
    live copies to fail over to — and every copy the pool makes
    (``replicas``, join build copies) is stamped.  An unreplicated shard
    (``None``: a default table's, a caller-placed segment's) is the only
    copy there is, so its node alone answers for it, typed while it is
    down, and it is served again after a recovery.  ``replicas`` are the
    k-1 byte-identical failover copies of a shard, in fixed ring order
    (:func:`~repro.core.partition.replica_nodes`) — each, like a join
    build copy, itself a replica-less shard over its own segment.
    """

    node_index: int
    chain: VersionChain
    incarnation: int | None = None
    replicas: tuple["Shard", ...] = ()

    def candidates(self) -> tuple["Shard", ...]:
        """Primary-first list of the copies a request may execute
        against; the scatter router tries them in this order, so which
        copy serves is a pure function of which nodes are up."""
        return (self,) + self.replicas


class Table:
    """The one catalog handle: a named table as a list of shards.

    Handle → shards → chain → segments.  Each :class:`Shard` owns a
    :class:`~repro.core.versioning.VersionChain` on one node; a chain is
    one base :class:`FTable` segment plus committed delta segments.  A
    plain table is the chain that was never written (epoch 0, no
    deltas); a single memory node is the one-shard pool.  Everything
    that differs between tables is a property read off the handle —
    ``writable``, ``partition.scheme``, ``len(shards)`` — never a type,
    and what a scan does follows from the deltas at its epoch
    (:meth:`has_deltas`), never from how the table was created.

    ``partition`` is ``None`` for a segment the caller placed itself
    (:func:`as_table`): it lives where it was allocated and is never
    moved or copied by the pool.
    """

    def __init__(self, name: str, schema: Schema,
                 partition: PartitionSpec | None, shards: Sequence[Shard],
                 num_partitions: int = 1,
                 shard_ranges: dict[int, tuple] | None = None):
        if not shards:
            raise CatalogError(
                f"table {name!r} needs at least one non-empty shard")
        self.name = name
        self.schema = schema
        self.partition = partition
        self.shards = list(shards)
        #: The modulus of the partition function (the pool's node count
        #: at create time) — two hash-partitioned tables co-locate equal
        #: keys iff their moduli match.  Empty shards are skipped in
        #: ``shards``, so this cannot be derived from ``len(shards)``.
        self.num_partitions = num_partitions
        #: Per-shard observed ``[min, max]`` of the partition key, as
        #: numpy scalars of the key's dtype (range scheme only) — the
        #: plan-time shard-pruning metadata.
        self.shard_ranges = shard_ranges or {}

    @property
    def writable(self) -> bool:
        """May the write verbs commit to it?  Only a chunk-partitioned,
        unreplicated table: the global visible row order is
        shard-concatenation order (what keeps scatter-gather merges
        byte-identical to one node), and a write has one copy of each
        shard to append to."""
        return (self.partition is not None
                and self.partition.order_preserving
                and not any(s.replicas for s in self.shards))

    def has_deltas(self, epoch: int) -> bool:
        """Does any shard's chain hold a delta visible at ``epoch``?
        With none, a scan of the snapshot is a scan of the base
        segments."""
        return any(d.epoch <= epoch for s in self.shards
                   for d in s.chain.deltas)

    @property
    def epoch(self) -> int:
        """The committed epoch.  The two-phase commit step is yield-free
        and bumps every shard (no-op bumps included), so every shard
        agrees on it at any point a reader can observe."""
        return self.shards[0].chain.epoch

    @property
    def num_rows(self) -> int:
        """Visible rows at the current epoch."""
        return sum(s.chain.num_rows for s in self.shards)

    @property
    def size_bytes(self) -> int:
        return sum(s.chain.size_bytes for s in self.shards)

    @property
    def num_deltas(self) -> int:
        return sum(len(s.chain.deltas) for s in self.shards)

    def stats_at(self, epoch: int) -> tuple[int, int, int]:
        """``(visible_rows, scan_bytes, delta_rows)`` of the table at
        ``epoch``, over every shard's chain — what the planner
        prices and what a shipped read pays to merge."""
        views = [s.chain.view_at(epoch) for s in self.shards]
        return (sum(s.chain.visible_rows_at(epoch) for s in self.shards),
                sum(v.scan_bytes for v in views),
                sum(v.delta_rows for v in views))

    def check_epochs(self) -> None:
        """Invariant: every shard sits at the table's epoch."""
        for shard in self.shards:
            if shard.chain.epoch != self.epoch:
                raise QueryError(
                    f"shard {shard.chain.name!r} at epoch "
                    f"{shard.chain.epoch} != table epoch {self.epoch}; a "
                    f"two-phase commit was interrupted")

    def __repr__(self) -> str:
        layout = (self.partition.describe() if self.partition is not None
                  else "caller-placed")
        return (f"Table({self.name!r}, epoch {self.epoch}, {self.num_rows} "
                f"rows over {len(self.shards)} shard(s), {layout})")


def as_table(source) -> Table:
    """The handle behind ``source``: itself, or — for a raw
    :class:`FTable` the caller allocated with ``alloc_table_mem`` — the
    one-shard plain table over that segment (node 0, unstamped,
    unpartitioned).  The one place a verb's table argument is coerced."""
    if isinstance(source, Table):
        return source
    if not isinstance(source, FTable):
        raise QueryError(
            f"expected a table handle or an FTable, got "
            f"{type(source).__name__}")
    return Table(source.name, source.schema, None,
                 [Shard(0, VersionChain(source.name, source.schema, source))])
