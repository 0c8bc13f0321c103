"""Client-side data API, mirroring the paper's programmatic interface (§4.2).

The paper's C-style functions map onto client methods:

====================================  =======================================
Paper                                 This library
====================================  =======================================
``openConnection(qp, node)``          ``client = FarviewClient(node)`` /
                                      ``client.open_connection()``
``allocTableMem(qp, ft)``             ``client.alloc_table_mem(ft)``
``freeTableMem(qp, ft)``              ``client.free_table_mem(ft)``
``tableWrite(qp, ft)``                ``client.table_write(ft, rows)``
``tableRead(qp, ft)``                 ``client.table_read(ft)``
``farView(qp, ft, params)``           ``client.far_view(ft, query)``
``select(qp, ft, proj, sel, pred)``   ``client.select(ft, columns, predicate)``
====================================  =======================================

**One client over one handle.**  A catalog entry is a
:class:`~repro.core.table.Table`: a list of shards, each a version chain
of segments on one memory node (handle → shards → chain → segments).
:class:`ClusterClient` is the one router over that handle — the retry
loop, the scatter with replica failover, the one placement route and
the one client tail of ship / hybrid / compiled executions, the
versioned write verbs, join-build placement and the materialized-view
verbs are each written once, against a list of :class:`_NodeSession`\\ s
(one connection per memory node; a session speaks segments and chains
to its node and knows nothing of planning or catalogs).  A single memory
node is the one-shard pool: :class:`FarviewClient` is the constructor of
that case plus the paper's memory verbs on a raw
:class:`~repro.core.table.FTable`, which every verb accepts by coercing
it to its one-shard handle (:func:`~repro.core.table.as_table`).  A
one-shard table's scatter runs its lone shard inline and returns the
shard's own result, so it costs exactly what one node costs — same
simulated time, same events.

Every verb that takes simulated time is a ``*_proc`` generator (compose
it inside a running simulation: a SQL statement is one process, so many
run concurrently, from many clients, under a fault schedule) with a
blocking twin, generated by :func:`_with_blocking_verbs`, that drives
the simulator to completion and returns ``(result, elapsed_ns)`` — the
paper's measurement endpoint, "until the final results are written to
the memory of the client machine" (§6.2).  Only the twins and the create
verb drive the simulator.
``docs/ARCHITECTURE.md`` ("Clients and results", "The versioned write
path") has the verb tables, the one result type and the placement and
write contracts.
"""

from __future__ import annotations

import functools
import inspect
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..baselines.cpu_model import CostBreakdown, CpuCostModel
from ..baselines.sw_ops import software_decrypt, software_distinct
from ..common.errors import (CatalogError, ConnectionError_,
                             DegradedResultError, FarviewError, FaultError,
                             JoinBuildOverflowError, NodeFailedError,
                             QueryError, RegionFailedError,
                             RequestTimeoutError)
from ..common.expr import Col, Expr, TextMatch
from ..common.records import Schema, concat_rows, take_rows
from ..operators.aggregate import (AggregateSpec, accumulator_rows,
                                   grouped_schema)
from ..operators.crypto import AesCtr
from .catalog import Catalog
from .compile import ParsedWrite
from .cost_model import (PlacementCostModel, PlanStats, delta_merge_cost_ns,
                         estimate_chain, view_circuit_cost_ns)
from .planner import (ExplainPlan, chain_labels, client_steps,
                      plan_placement, run_client_join, run_client_kernel)
from .cluster import (JOIN_STRATEGIES, FarviewCluster, ScatterPlan,
                      join_strategies, merge_aggregate_rows,
                      merge_group_rows, plan_scatter)
from .faults import RetryPolicy
from .node import Connection, ExecutionReport, FarviewNode
from .partition import PartitionSpec, partition_indices, replica_nodes
from .pipeline_compiler import (compile_chain, join_arm, lower_query,
                                over_deltas)
from .query import Query
from .table import FTable, Shard, Table, as_table
from .versioning import (ROWID_COLUMN, VersionChain, delta_schema,
                         require_versionable, rows_from_literals)
from .views import (ChainTracker, MaterializedView, Subscription, ViewCatalog,
                    compile_circuit)
from .zset import ZSet


@dataclass
class QueryResult:
    """Client-visible result of any verb that returns rows.

    One shape for every execution.  A *direct* node execution sets
    ``report`` (the node's :class:`ExecutionReport`), ``ops`` (the step
    nodes it ran) and ``stream`` (the raw shipped bytes, possibly
    encrypted, possibly carrying overflow duplicates the client dedups
    on the DISTINCT key).  Every other execution sets ``merged``, the
    final rows after the client-side work: a scatter-gather merge, or
    a statement's one client tail, whose ``client_cost`` is its one
    bill (one setup, one result write), already in
    ``response_time_ns`` — the paper's "until the final results are
    written to the memory of the client machine" endpoint (§6.2).
    """

    schema: Schema
    response_time_ns: float = 0.0
    #: Node-side execution report; ``None`` unless one node ran this
    #: result's pipeline directly.
    report: Optional[ExecutionReport] = None
    #: The step nodes a direct node execution ran: what ``rows()``
    #: decrypts with, dedups on and merges overflowed groups by.
    ops: list = field(default_factory=list, repr=False)
    #: The :class:`~repro.core.planner.ExplainPlan`: the head Query's
    #: node, plus one ``tail`` entry per compiled client step; ``None``
    #: on the plan-free offload path with nothing after the head.
    explain: Optional[ExplainPlan] = None
    #: Sub-results: the per-shard results of a scatter-gather, or the
    #: node results a client tail landed (head or hybrid prefix, and
    #: each offloaded arm), in landing order.
    parts: list["QueryResult"] = field(default_factory=list)
    client_cost: Optional[CostBreakdown] = None
    #: Resolved scatter strategy of a cluster join (``broadcast`` /
    #: ``colocated`` / ``shuffle``), ``None`` otherwise.
    join_strategy: Optional[str] = None
    stream: Optional[bytes] = field(default=None, repr=False)
    merged: Optional[np.ndarray] = field(default=None, repr=False)
    #: Bytes the client read raw over the wire for this result (shipped
    #: table image, shipped join build sides) outside any sub-result.
    read_bytes: int = 0

    def rows(self) -> np.ndarray:
        """The final rows.  For a direct node result this decodes the
        shipped stream (decrypting the transmission first) and applies
        the client-side software post-processing the paper prescribes:
        deduplicate overflow leakage from the DISTINCT operator on its
        key, first row wins (§5.4), and append the overflowed GROUP BY
        groups the node aggregated beside its tables."""
        if self.merged is not None:
            return self.merged
        data, ops = self.stream, {op.kernel: op for op in self.ops}
        if "encrypt" in ops:
            data = AesCtr(ops["encrypt"].key, ops["encrypt"].nonce).process(
                data)
        rows = self.schema.from_bytes(data)
        if self.report.overflow_keys:
            rows = software_distinct(rows, self.schema,
                                     ops["distinct"].columns).rows
        if self.report.overflow_groups:
            rows = np.concatenate([rows, accumulator_rows(
                self.schema, ops["aggregate"].group_by,
                ops["aggregate"].aggregates, self.report.overflow_groups)])
        return rows

    @property
    def data(self) -> bytes:
        """The raw shipped stream of a direct node result; the canonical
        byte image (plaintext, single-node layout) of ``rows()``
        otherwise."""
        if self.stream is not None:
            return self.stream
        return self.schema.to_bytes(self.merged)

    @property
    def num_rows(self) -> int:
        return len(self.rows())

    @property
    def bytes_shipped(self) -> int:
        """Bytes that crossed the wire to the client, over every link."""
        own = self.report.bytes_shipped if self.report is not None else 0
        return own + self.read_bytes + sum(p.bytes_shipped
                                           for p in self.parts)

    @property
    def bytes_scanned(self) -> int:
        """Bytes the nodes' pipelines ingested for this result."""
        own = self.report.bytes_scanned if self.report is not None else 0
        return own + sum(p.bytes_scanned for p in self.parts)


def _client_compute(sim, ns: float):
    """Process: occupy the simulated clock with client-side software."""
    if ns > 0:
        yield sim.timeout(ns)


def canonical_result_bytes(result: QueryResult) -> bytes:
    """The placement-invariant byte image of a query result:
    ``schema.to_bytes(rows())``, where ``result.data`` of a direct node
    execution is the raw shipped stream (possibly encrypted, possibly
    carrying overflow duplicates the client dedups)."""
    return result.schema.to_bytes(result.rows())


def _run(sim, proc, name: str):
    """Drive ``proc`` to completion; returns ``(value, elapsed_ns)``."""
    start = sim.now
    result = sim.run_process(proc, name)
    return result, sim.now - start


def _blocking(owner: type, verb: str, proc):
    """The blocking twin of one ``*_proc`` generator method; signature
    and docstring are the generator's."""

    @functools.wraps(proc)
    def twin(self, *args, **kwargs):
        return _run(self.sim, proc(self, *args, **kwargs), verb)

    twin.__name__ = verb
    twin.__qualname__ = f"{owner.__qualname__}.{verb}"
    twin.__doc__ = (f"Blocking :meth:`{proc.__name__}`; returns "
                    f"``(value, elapsed_ns)``.\n\n{inspect.getdoc(proc)}")
    return twin


def _with_blocking_verbs(cls):
    """Class decorator — the wrapper table.  Every public ``verb_proc``
    generator the class defines gets its blocking twin ``verb``, unless
    the class writes that verb by hand (it does more than wrap)."""
    own = dict(vars(cls))
    for name, proc in own.items():
        verb = name.removesuffix("_proc")
        if verb != name and not name.startswith("_") and verb not in own:
            setattr(cls, verb, _blocking(cls, verb, proc))
    return cls


@dataclass
class _Placement:
    """Where one join's build side lives in the pool.

    ``copies`` maps ``(partition, node_index)`` to the node-local copy
    of that build partition — a replica-less plain
    :class:`~repro.core.table.Shard`, stamped like any other (a stale
    stamp means the copy is gone and must never be probed against).
    ``empty`` are the partitions that hold no build rows: their fact
    shards probe nothing and are answered client-side.  A commit to the
    build (or a drop) *retires* a placement: later joins place anew, and
    its copies are freed once the last of its ``users`` — the scans
    probing them — ends.
    """

    copies: dict[tuple[int, int], Shard] = field(default_factory=dict)
    empty: frozenset[int] = frozenset()
    users: int = 0
    retired: bool = False


#: Sentinel a shard executor returns (instead of raising) when every
#: candidate replica of its shard is gone and the caller opted into
#: degraded results.  Filtered out by :meth:`ClusterClient._gather`.
_SHARD_LOST = object()


class _ConnLock:
    """FIFO mutex serializing shard requests on one node connection.

    Replica failover can route two shards' requests of the same scatter
    onto the same node, but a connection's landing buffer holds one
    request at a time (reset + read) — interleaving would corrupt both
    results.  The uncontended path takes and releases the lock
    synchronously (no events, no yields), so the no-fault baselines are
    bit-for-bit unaffected.
    """

    __slots__ = ("sim", "locked", "waiters")

    def __init__(self, sim):
        self.sim = sim
        self.locked = False
        self.waiters: deque = deque()

    def acquire(self):
        """Process: returns holding the lock (synchronously when free)."""
        if not self.locked:
            self.locked = True
            return
        ticket = self.sim.event()
        self.waiters.append(ticket)
        yield ticket  # woken by release(), lock handed over directly

    def release(self) -> None:
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.locked = False


@_with_blocking_verbs
class _NodeSession:
    """One query thread's connection to one memory node: the QP, its
    landing buffer and the dynamic region.  Speaks what the node speaks
    — segments (:class:`~repro.core.table.FTable`) and the version
    chains built from them.  No planning, no catalog, no retries: the
    router (:class:`ClusterClient`) decides which session serves which
    shard and wraps each request in its retry policy."""

    def __init__(self, node: FarviewNode, buffer_capacity: int):
        self.node = node
        self.sim = node.sim
        self.buffer_capacity = buffer_capacity
        self._conn: Connection | None = None
        self.lock = _ConnLock(node.sim)

    # -- connection -----------------------------------------------------------
    def open_connection(self) -> Connection:
        if self._conn is not None:
            raise ConnectionError_("connection already open")
        self._conn = self.node.open_connection(self.buffer_capacity)
        return self._conn

    def close_connection(self) -> None:
        conn = self.connection
        self.node.close_connection(conn)
        self._conn = None

    def abandon_connection(self) -> None:
        """Drop the connection handle without a node round trip — for a
        lease holder whose node died mid-lease: the close RPC cannot
        reach it, and the node-side state is gone with the crashed
        incarnation.  Clears the node's connection entry and link flow
        too: the recovered node then frees its region and domain, and
        lease-manager accounting stays exact."""
        conn = self.connection
        conn.qp.connected = False
        conn.closed = True
        self.node.connections.pop(conn.qp.qp_id, None)
        self.node.link.unregister_flow(conn.qp.qp_id)
        self._conn = None

    @property
    def connection(self) -> Connection:
        if self._conn is None:
            raise ConnectionError_("no open connection; call open_connection")
        return self._conn

    # -- segments -------------------------------------------------------------
    def alloc_segment(self, segment: FTable) -> None:
        self.node.alloc_table_mem(self.connection, segment)

    def free_segment(self, segment: FTable) -> None:
        self.node.free_table_mem(self.connection, segment)

    def release_segments(self, segments) -> None:
        """Best-effort free: a crashed node has nothing left to free."""
        for segment in segments:
            try:
                self.free_segment(segment)
            except FarviewError:
                pass

    def table_write_proc(self, segment: FTable, rows: np.ndarray | bytes):
        """Process: upload ``rows`` (array or raw image) into one
        segment; returns the bytes written."""
        conn = self.connection
        if isinstance(rows, np.ndarray):
            segment.validate_rows(rows)
            data = segment.schema.to_bytes(rows)
        else:
            data = bytes(rows)
        return (yield from self.node.serve_write(conn, segment, data))

    def table_read_proc(self, segment: FTable, offset: int = 0,
                        length: int | None = None):
        """Process: raw RDMA read of one segment; returns its bytes."""
        conn = self.connection
        conn.qp.buffer.reset()
        total = yield from self.node.serve_read(conn, segment, offset, length)
        return conn.qp.buffer.read(0, total)

    # -- chains ---------------------------------------------------------------
    def _release_pin(self, chain: VersionChain, token: int) -> None:
        for segment in chain.unpin(token):
            self.free_segment(segment)

    def _scan_once_proc(self, chain: VersionChain, ops: list, epoch: int):
        """Process: one offloaded scan of the chain's snapshot at
        ``epoch`` through the step nodes ``ops``.  Returns the node's own
        :class:`QueryResult` (report + stream)."""
        conn = self.connection
        # Pins are taken before any simulated time passes (the compile
        # resolves the same epochs), so a chain — or a join build side
        # probed in place — being updated or compacted mid-scan cannot
        # change or free the segments this scan reads.
        pins = [(chain, chain.pin(epoch))]
        for op in ops:
            if op.kernel == "join":
                build = as_table(op.build).shards[0].chain
                pins.append((build, build.pin(build.epoch)))
        try:
            # Pipelines are stateful/one-shot: always compile a fresh one;
            # the signature keeps region reconfiguration free across
            # repeats.
            compiled = compile_chain(ops, chain.base, self.node.config)
            conn.qp.buffer.reset()
            start = self.sim.now
            report = yield from self.node.serve_farview(
                conn, chain.view_at(epoch), compiled)
        finally:
            for pinned, token in reversed(pins):
                self._release_pin(pinned, token)
        return QueryResult(
            schema=compiled.output_schema, report=report, ops=ops,
            stream=conn.qp.buffer.read(0, report.bytes_shipped),
            response_time_ns=self.sim.now - start)

    def read_chain_proc(self, chain: VersionChain, epoch: int,
                        offset: int = 0, length: int | None = None):
        """Process: the chain's visible rows at ``epoch`` — raw RDMA
        reads of every segment of the pinned snapshot, merged on the
        client when it holds deltas; without deltas the image is the
        base segment's bytes (its ``offset`` / ``length`` range).
        Returns ``(image, rowids, bytes_shipped)``."""
        token = chain.pin(epoch)
        try:
            view = chain.view_at(epoch)
            images: dict[str, bytes] = {}
            for segment in view.segment_tables:
                images[segment.name] = yield from self.table_read_proc(
                    segment, offset, length)
        finally:
            self._release_pin(chain, token)
        shipped = sum(map(len, images.values()))
        if not view.deltas:
            return images[view.base.name], view.base_rowids, shipped
        rows, ids = view.materialize(lambda t: images[t.name])
        return chain.schema.to_bytes(rows), ids, shipped

    def prepare_delta_proc(self, kind: str, chain: VersionChain, *args):
        """Process: build one write's delta segment on the node without
        making it visible; returns ``(kind, segment, num_rows,
        visible_change)`` for :meth:`VersionChain.commit_delta`."""
        conn = self.connection
        if kind == "insert":
            # The one write verb whose prepare never scans the chain on
            # the node: check §4.4 isolation here, before anything is
            # allocated or committed against a foreign handle.
            self.node.require_access(conn, chain.base)
            rows = args[0]
            if len(rows) == 0:
                return (kind, None, 0, 0)
            ids = chain.allocate_rowids(len(rows))
            dschema = delta_schema(chain.schema)
            drows = dschema.empty(len(rows))
            drows[ROWID_COLUMN] = ids
            for column in chain.schema.names:
                drows[column] = rows[column]
            segment = FTable(chain.next_segment_name(), dschema, len(rows))
            self.alloc_segment(segment)
            yield from self.node.serve_write(conn, segment,
                                             dschema.to_bytes(drows))
            return (kind, segment, len(rows), len(rows))
        serve = (self.node.serve_update_delta if kind == "update"
                 else self.node.serve_delete_delta)
        token = chain.pin(chain.epoch)
        try:
            prepared = yield from serve(conn, chain.view_at(chain.epoch),
                                        *args, chain.next_segment_name())
        finally:
            self._release_pin(chain, token)
        if prepared is None:
            return (kind, None, 0, 0)
        segment, rowids = prepared
        return (kind, segment, len(rowids),
                -len(rowids) if kind == "delete" else 0)

    def compact_chain_proc(self, chain: VersionChain):
        """Process: fold the delta chain into a fresh base segment.

        Superseded segments are freed immediately unless an in-flight
        pinned scan still reads them — then they are retired and freed
        when the last such scan ends.
        """
        conn = self.connection
        token = chain.pin(chain.epoch)
        try:
            new_base, ids = yield from self.node.serve_compact(
                conn, chain.view_at(chain.epoch),
                f"{chain.name}#b{chain.compactions + 1}")
        finally:
            self._release_pin(chain, token)
        for segment in chain.retire_for_compaction(new_base, ids):
            self.free_segment(segment)

    def drop_chain(self, chain: VersionChain) -> None:
        """Free every live, retired and delta segment of the chain."""
        for segment in chain.drain_segments():
            self.free_segment(segment)


@_with_blocking_verbs
class ClusterClient:
    """The one client: a query thread routing over a pool of memory nodes.

    Owns one :class:`_NodeSession` (QP + dynamic region) per node and a
    :class:`~repro.core.catalog.Catalog` of
    :class:`~repro.core.table.Table` handles.  Reads rewrite the query
    with :func:`~repro.core.cluster.plan_scatter`, scatter the fragment
    to the shards that own data, execute with true node-level
    parallelism, and gather client-side; response time runs until the
    *last* shard's results land in client memory (§6.2).  A one-shard
    table skips the rewrite and the gather (:meth:`_offload_proc`).
    """

    def __init__(self, cluster: FarviewCluster,
                 buffer_capacity: int = 8 * 1024 * 1024):
        self.cluster = cluster
        self._attach(cluster.nodes, buffer_capacity)

    def _attach(self, nodes, buffer_capacity: int) -> None:
        self.sim = nodes[0].sim
        self.catalog = Catalog()
        self._sessions = [_NodeSession(node, buffer_capacity)
                          for node in nodes]
        #: Cost model of the compute node's CPU — prices the client-side
        #: remainder of planned and compiled executions and view circuits.
        self.cpu = CpuCostModel()
        #: Join build placements that moved bytes, by ``(build name,
        #: fact name | None)`` — ``None`` for broadcast, whose layout is
        #: fact-independent (:meth:`_place_build_proc`).  Copies hold the
        #: build's rows when they were placed, so a placement stays valid
        #: until a commit to the build or a drop of either table retires
        #: it (:meth:`_retire_placements`) — or a node crashes, which
        #: invalidates its copies.
        self._placements: dict[tuple[str, str | None], _Placement] = {}
        #: In-flight moves by placement key: concurrent joins share one
        #: move process instead of racing the cache and leaking copies.
        self._moves: dict[tuple[str, str | None], object] = {}
        #: Build-side bytes written into pool memory for join placement
        #: (every copy a move wrote; co-located joins move none).
        self.replica_bytes_moved = 0
        #: Optional :class:`~repro.core.faults.RetryPolicy`: per-request
        #: deadline + capped exponential backoff on every shard *read*
        #: request (``table_read``, ``far_view`` and everything built on
        #: them; view bootstrap and refresh reads) and on
        #: :meth:`FarviewClient.table_write`, an idempotent
        #: overwrite.  The write verbs are **not** retried: a
        #: prepare that may have reached the node must not be applied
        #: twice.  ``None`` (default) is the exact pre-fault-layer
        #: request path — no extra simulator events.
        self.retry_policy: RetryPolicy | None = None
        #: When True, a read of a many-shard table that loses *every*
        #: replica of a shard raises :class:`DegradedResultError` carrying
        #: the partial merge of the survivors instead of the bare failure.
        self.allow_degraded = False
        #: Registered materialized views + their chain trackers — one
        #: tracker per shard chain.
        self.views = ViewCatalog()

    @property
    def num_nodes(self) -> int:
        return len(self._sessions)

    def node_client(self, index: int) -> _NodeSession:
        """The per-node session behind shard ``index``'s node."""
        return self._sessions[index]

    # -- connection ----------------------------------------------------------
    def open_connection(self):
        """Open one QP + dynamic region on every node of the pool,
        all-or-nothing: if any node cannot grant a region, the regions
        already opened on earlier nodes are released first."""
        opened: list[_NodeSession] = []
        try:
            for session in self._sessions:
                session.open_connection()
                opened.append(session)
        except Exception:
            for session in opened:
                session.close_connection()
            raise

    def close_connection(self) -> None:
        for session in self._sessions:
            session.close_connection()

    def abandon_connection(self) -> None:
        """:meth:`_NodeSession.abandon_connection` on every node."""
        for session in self._sessions:
            session.abandon_connection()

    # -- the retry loop -------------------------------------------------------
    def _attempts_proc(self, make_proc, verb: str, usable=None):
        """Process: run ``make_proc()`` under :attr:`retry_policy`.
        Typed fault errors retry with capped exponential backoff (as
        long as ``usable()`` — when given — still holds); a completion
        past the deadline is *discarded* and retried, surfacing as
        :class:`RequestTimeoutError` once attempts are exhausted.  With
        no policy installed this *is* ``make_proc()`` — no extra
        generator frame, no simulator events, identical timing."""
        if self.retry_policy is None:
            return make_proc()
        return self._retry_proc(self.retry_policy, make_proc, verb, usable)

    def _retry_proc(self, policy: RetryPolicy, make_proc, verb: str, usable):
        attempt = 0
        while True:
            attempt += 1
            last = attempt >= policy.max_attempts
            start = self.sim.now
            try:
                result = yield from make_proc()
            except FaultError:
                if last or (usable is not None and not usable()):
                    raise
            else:
                took = self.sim.now - start
                if policy.deadline_ns is None or took <= policy.deadline_ns:
                    return result
                if last:
                    raise RequestTimeoutError(
                        f"{verb} took {took:.0f} ns (deadline "
                        f"{policy.deadline_ns:.0f} ns, {attempt} attempts)")
            yield self.sim.timeout(policy.backoff_ns(attempt))

    # -- placement: the fork, the ladder, the client-side tail --------------
    def _bind(self, table, as_of: int | None = None) -> tuple:
        """Coerce ``table`` to its handle and resolve the snapshot epoch
        once (default: the current one), before simulated time passes
        and concurrent writers can commit.  Idempotent on a bound
        pair."""
        table = as_table(table)
        return table, table.epoch if as_of is None else as_of

    def _placed_proc(self, table, query: Query, placement: str,
                     stats: PlanStats | None = None,
                     as_of: int | None = None,
                     join_strategy: str | None = None, tail=()):
        """Process: the one route of a Query and of a compiled statement
        (its head Query, then ``tail``).  ``"offload"`` with an empty
        tail is the paper's path: no planner, no explain, timing-exact.
        Anything else plans the head once (plan-free under
        ``"offload"``) and runs one :meth:`_run_tail_proc`, unless the
        whole chain offloads and leaves the client nothing.  The Query
        is lowered once, by the plan or here.  Under ``"auto"`` a join
        build overflowing the on-chip hash below nominal capacity is
        refused in the region (:meth:`plan` then keeps the join on the
        client), and a dead dynamic region ships (raw reads need no
        region); the record is the auto call's, timed from its first
        attempt."""
        table, epoch = self._bind(table, as_of)
        if placement == "offload" and not tail:
            return (yield from self._offload_proc(
                table, lower_query(query, table.schema), epoch,
                join_strategy))
        start = self.sim.now

        def attempt(placement):
            plan = None if placement == "offload" else self.plan(
                table, query, placement, stats, epoch, join_strategy)
            ops = plan.ops if plan else lower_query(query, table.schema)
            if tail or plan.chosen != "offload":
                return self._run_tail_proc(table, epoch, ops, plan,
                                           list(tail), placement, stats,
                                           join_strategy)
            return self._recorded_proc(plan, self._offload_proc(
                table, ops, epoch, join_strategy))

        try:
            return (yield from attempt(placement))
        except JoinBuildOverflowError:
            # The compile-time capacity pre-check is nominal; cuckoo
            # kick chains can exhaust below it while actually loading
            # the build.
            if placement != "auto" or query.join is None:
                raise
            arm = join_arm(query.join)
            self._sessions[table.shards[0].node_index].connection.region \
                .refuse(arm.build, arm.build_key, as_table(arm.build).epoch)
            result = yield from attempt(placement)
        except RegionFailedError:
            if placement != "auto":
                raise
            result = yield from attempt("ship")
        result.explain.requested = placement
        result.explain.actual_ns = result.response_time_ns = (self.sim.now
                                                              - start)
        return result

    def _recorded_proc(self, plan: ExplainPlan, proc):
        """Process: ``proc``, its result carrying ``plan`` timed to it."""
        start = self.sim.now
        result = yield from proc
        plan.actual_ns = self.sim.now - start
        result.explain = plan
        return result

    def far_view_planned_proc(self, table, query: Query,
                              placement: str = "auto",
                              stats: PlanStats | None = None,
                              as_of: int | None = None,
                              join_strategy: str | None = None):
        """Process: :meth:`_placed_proc` with the plan always recorded:
        ``"offload"`` (byte- and timing-identical to :meth:`far_view`),
        ``"ship"`` (raw read, every operator in client software) or
        ``"auto"`` (the cheapest split; degrades on a join-build
        overflow or a dead region) carry an
        :class:`~repro.core.planner.ExplainPlan` with estimated and
        actual times.  ``as_of`` pins the table's snapshot (default: the
        current epoch), ``join_strategy`` a join's scatter strategy."""
        if placement != "offload":
            return self._placed_proc(table, query, placement, stats,
                                     as_of, join_strategy)
        plan = self.plan(table, query, placement, stats, as_of=as_of,
                         join_strategy=join_strategy)
        return self._recorded_proc(plan, self._offload_proc(
            table, plan.ops, as_of, join_strategy))

    def plan(self, table, query: Query, placement: str = "auto",
             stats: PlanStats | None = None, as_of: int | None = None,
             join_strategy: str | None = None) -> ExplainPlan:
        """Plan (but do not run) ``query`` over the table's shards:
        offload, ship, or hybrid — where should each operator go?
        Returns the decision's :class:`~repro.core.planner.ExplainPlan`.

        Estimates use table-level cardinalities with per-shard streaming
        parallelism; the first shard's region answers residency (a
        pipeline it does not hold pays the partial-reconfiguration
        charge).  A table is priced at its snapshot
        (:func:`~repro.core.planner.plan_placement` reads it off the
        handle).  Joins fold the resolved scatter strategy in: an
        uncached shuffle charges its wire movement against the offload
        side, and the strategy lands on the plan.  Under ``auto`` a join
        stays on the client while that region refuses its build.
        """
        table, epoch = self._bind(table, as_of)
        session = self._sessions[table.shards[0].node_index]
        arm = join_arm(query.join) if query.join is not None else None
        strategy = self._resolve_join_strategy(table, arm, join_strategy)
        join_transfer_ns = 0.0
        if strategy == "shuffle":
            join_transfer_ns = self._movement_ns(as_table(arm.build), table,
                                                 strategy)
        return plan_placement(
            query, table, session.node.config, as_of=epoch,
            placement=placement, stats=stats, cpu=self.cpu,
            region=session.connection.region,
            buffer_capacity=session.buffer_capacity,
            join_strategy=strategy, join_transfer_ns=join_transfer_ns)

    def _run_tail_proc(self, table: Table, epoch: int, ops: list,
                       plan: ExplainPlan | None, tail: list, placement: str,
                       stats=None, join_strategy: str | None = None):
        """Process: the one client tail — one statement, one bill (one
        ``setup``, its reads and kernels, one result write), one clock
        advance.

        ``land`` puts a chain's rows into the bill, the head's ``ops``
        and each filtered arm's alike — ship: the raw
        :meth:`_read_raw_proc`; hybrid: the offloaded slice
        ``ops[:split]`` plus ``read_ns``; whole chain (``plan`` ``None``:
        plan-free): the node's result — then runs its ``client_steps(ops,
        split)``; the head's are followed by ``tail``.  A ``join`` step
        reads its build raw or lands the arm's Query, lowered once by
        its plan (or, plan-free, here) under ``placement``, then probes it
        (:func:`~repro.core.planner.run_client_join`); any other step is
        :func:`~repro.core.planner.run_client_kernel`.  One snapshot:
        ``table`` at ``epoch`` and every build side at its current epoch
        are pinned before any simulated time passes, until the last
        read.  The record is the head's node, one ``tail`` entry per
        tail step."""
        sim, cpu = self.sim, self.cpu
        start = sim.now
        steps = [] if plan is None else client_steps(ops, plan.split)
        snapshot = [(table, epoch)] + [self._bind(op.build) for op
                                       in steps + tail if op.kernel == "join"]
        epochs = {handle.name: at for handle, at in snapshot}
        pins = [(shard, shard.chain.pin(at)) for handle, at in snapshot
                for shard in handle.shards]
        cost = CostBreakdown()
        cost.add("setup", cpu.setup_ns())
        parts, read_bytes = [], 0

        def land(table, at, ops, plan, steps, strategy=None):
            nonlocal read_bytes
            if plan is not None and plan.chosen == "ship":
                rows, shipped = yield from self._read_raw_proc(table, at,
                                                               cost, ops)
                schema = table.schema
                read_bytes += shipped
            else:
                landed = yield from self._offload_proc(
                    table, ops if plan is None else ops[:plan.split], at,
                    strategy)
                if plan is None:
                    plan = ExplainPlan("offload", "offload", len(ops),
                                       chain_labels(ops), ops=ops,
                                       join_strategy=landed.join_strategy)
                elif plan.chosen == "hybrid":
                    cost.add("read", cpu.read_ns(landed.bytes_shipped))
                rows, schema = landed.rows(), landed.schema
                parts.append(landed)
            for op in steps:
                rows, schema, _arm = yield from step(op, rows, schema)
            return rows, schema, plan

        def step(op, rows, schema):
            nonlocal read_bytes
            if op.kernel != "join":
                return (*run_client_kernel(op, rows, schema, cpu, cost),
                        None)
            at = epochs[op.table]
            if op.query is None:
                build_rows, shipped = yield from self._read_raw_proc(
                    op.build, at, cost)
                build_schema, arm = op.build.schema, None
                read_bytes += shipped
            else:
                arm = None if placement == "offload" else self.plan(
                    op.build, op.query, placement, stats, as_of=at)
                arm_ops = (lower_query(op.query, op.build.schema)
                           if arm is None else arm.ops)
                build_rows, build_schema, arm = yield from land(
                    as_table(op.build), at, arm_ops, arm,
                    [] if arm is None else client_steps(arm_ops, arm.split))
            return (*run_client_join(rows, schema, build_rows, build_schema,
                                     op, cpu, cost), arm)

        try:
            rows, schema, record = yield from land(table, epoch, ops, plan,
                                                   steps, join_strategy)
            for op in tail:
                rows, schema, arm = yield from step(op, rows, schema)
                record.tail.append((f"join({op.table})" if op.kernel == "join"
                                    else op.kernel, arm))
        finally:
            for shard, token in reversed(pins):
                self._sessions[shard.node_index]._release_pin(shard.chain,
                                                              token)
        cost.add("write", cpu.write_ns(len(rows) * schema.row_width))
        yield from _client_compute(sim, cost.total_ns)
        record.actual_ns = sim.now - start
        return QueryResult(schema=schema, merged=rows,
                           response_time_ns=record.actual_ns, explain=record,
                           parts=parts, client_cost=cost,
                           read_bytes=read_bytes)

    def _read_raw_proc(self, table, epoch: int, cost: CostBreakdown,
                       ops=()):
        """Process: the one raw read of a whole table at ``epoch``
        (:meth:`table_read_proc`: base + deltas cross the wire), decoded;
        returns ``(rows, bytes_shipped)`` and charges the client the
        read and the merge of the deltas (none without them).  A ship
        plan passes its chain's ``ops``: it also pays the decrypt they
        start with."""
        cpu, table = self.cpu, as_table(table)
        visible, shipped, delta_rows = table.stats_at(epoch)
        data = yield from self.table_read_proc(table, as_of=epoch)
        cost.add("read", cpu.read_ns(shipped))
        cost.add("merge", delta_merge_cost_ns(cpu, visible, delta_rows))
        if ops and ops[0].kernel == "decrypt":
            # Only a caller-placed segment can be encrypted; the pool's
            # create loop writes plaintext shards.
            base = table.shards[0].chain.base
            data = software_decrypt(data, base.key, base.nonce)
            cost.add("aes", cpu.aes_ns(len(data)))
        return table.schema.from_bytes(data), shipped

    # -- paper-style higher-level helpers (§4.2's `select`) -----------------
    def select_proc(self, table, columns: list[str] | None,
                    predicate: Expr, vectorized: bool = False,
                    placement: str = "offload",
                    stats: PlanStats | None = None):
        """Process: ``SELECT columns FROM table WHERE predicate`` under
        ``placement``: ``"offload"`` (default, the paper's path),
        ``"ship"`` (raw read + client software) or ``"auto"`` (cheapest
        split; pass ``stats`` for better estimates)."""
        query = Query(projection=tuple(columns) if columns else None,
                      predicate=predicate, vectorized=vectorized,
                      label="select")
        return self._placed_proc(table, query, placement, stats)

    def select_distinct_proc(self, table, columns: list[str]):
        """Process: ``SELECT DISTINCT columns FROM table``, offloaded."""
        return self.far_view_proc(table, Query(
            projection=tuple(columns), distinct=True, label="distinct"))

    def group_by_proc(self, table, keys: list[str],
                      aggregates: list[AggregateSpec]):
        """Process: ``aggregates`` per group of ``keys``, offloaded."""
        return self.far_view_proc(table, Query(
            group_by=tuple(keys), aggregates=tuple(aggregates),
            label="group_by"))

    def regex_match_proc(self, table, column: str, pattern: str):
        """Process: the rows whose ``column`` matches ``pattern``."""
        return self.far_view_proc(table, Query(
            regex=TextMatch(Col(column), pattern, regexp=True), label="regex"))

    def sql_proc(self, statement: str, placement: str | None = None,
                 stats: PlanStats | None = None):
        """Process: parse and execute a SQL statement against the catalog.

        SELECTs run against any registered table (pinned at its current
        epoch) and return the :class:`QueryResult`, timed from the
        statement's own start; ``INSERT INTO ... VALUES``, ``UPDATE ...
        SET ... WHERE`` and ``DELETE FROM ... WHERE`` commit write
        batches against a writable table and return the new epoch.
        Placement precedence for reads: the ``placement`` argument, then
        a ``/*+ placement(...) */`` hint, then full offload.  The catalog
        prepares the statement when the verb is called (a SELECT is bound
        once per catalog state); the rest runs in the caller's process.
        """
        parsed, bound = self.catalog.prepare(statement)
        if bound is None:
            return self._sql_write(self.catalog.lookup(parsed.table), parsed)
        placement = placement or parsed.placement or "offload"
        return self._placed_proc(bound.base, bound.query, placement, stats,
                                 tail=bound.tail)

    @staticmethod
    def _require_writable(table) -> Table:
        """The handle behind ``table``, refused typed unless the write
        verbs may commit to it (:attr:`Table.writable`)."""
        table = as_table(table)
        if not table.writable:
            raise QueryError(
                f"table {table.name!r} is not writable: writes need a "
                f"chunk-partitioned, unreplicated table; writes to "
                f"caller-placed, hash- or range-partitioned and replicated "
                f"tables are not supported")
        return table

    def _sql_write(self, table: Table, parsed: ParsedWrite):
        """The write verb's process for a parsed INSERT/UPDATE/DELETE."""
        if parsed.kind == "insert":
            rows = rows_from_literals(table.schema, parsed.values)
            return self.insert_proc(table, rows)
        if parsed.kind == "update":
            return self.update_where_proc(table, parsed.predicate,
                                          dict(parsed.assignments))
        return self.delete_where_proc(table, parsed.predicate)

    # -- table lifecycle ------------------------------------------------------
    def create_table(self, name: str, schema: Schema, rows: np.ndarray,
                     partition: PartitionSpec | None = None) -> Table:
        """The one create loop: partition → allocate → write → register
        the per-node version chains of a table at epoch 0.  Nodes whose
        shard would be empty get no shard; shard segments are named
        ``{name}@{node}`` and each shard's ``partition.replicas - 1``
        byte-identical failover copies land on the next ring nodes.  The
        default spec (``chunk``, unreplicated) is :attr:`Table.writable`:
        :meth:`insert` / :meth:`update_where` / :meth:`delete_where` then
        each commit a copy-on-write delta segment and advance its epoch.

        Everything refusable from the arguments and the catalog is
        refused before the first allocation; any later failure frees
        every segment and replica already allocated."""
        spec = partition if partition is not None else PartitionSpec()
        require_versionable(schema)
        if rows.dtype != schema.dtype:
            raise QueryError(
                f"rows dtype {rows.dtype} does not match table schema "
                f"{schema.dtype}")
        if len(rows) == 0:
            raise QueryError(
                f"cannot create empty table {name!r}; an empty shard has "
                f"no disaggregated memory to allocate")
        if name in self.catalog:
            raise CatalogError(f"table {name!r} already registered")
        indices = partition_indices(rows, schema, spec, self.num_nodes)
        allocated: list[tuple[_NodeSession, FTable]] = []
        shards: list[Shard] = []
        shard_ranges: dict[int, tuple] = {}
        try:
            for node_index, idx in enumerate(indices):
                if len(idx) == 0:
                    continue
                part = rows if len(idx) == len(rows) else take_rows(rows, idx)
                # k-replica placement: byte-identical copies on the next
                # ring nodes.  The stamp rule (Shard): a replicated
                # table's copies carry their node's incarnation; an
                # unreplicated shard is unstamped and survives a
                # recovery.
                hosts = (node_index,) + replica_nodes(
                    node_index, self.num_nodes, spec.replicas)
                copies = []
                for host in hosts:
                    session = self._sessions[host]
                    chain = f"{name}@{node_index}" + (
                        f"r{host}" if host != node_index else "")
                    segment = FTable(chain, schema, len(part))
                    session.alloc_segment(segment)
                    # Track the segment before the write so a mid-upload
                    # failure still rolls its allocation back.
                    allocated.append((session, segment))
                    session.table_write(segment, part)
                    copies.append(Shard(
                        host, VersionChain(chain, schema, segment),
                        session.node.incarnation if len(hosts) > 1
                        else None))
                shards.append(replace(copies[0], replicas=tuple(copies[1:])))
                if spec.scheme == "range":
                    # Plan-time pruning metadata: each shard's observed
                    # key span, numpy scalars of the key's dtype so they
                    # compare with a literal as eval_mask does (cached
                    # here so pruning needs no reads).
                    shard_ranges[node_index] = (part[spec.key].min(),
                                                part[spec.key].max())
            table = Table(name, schema, spec, shards,
                          num_partitions=self.num_nodes,
                          shard_ranges=shard_ranges)
            self.catalog.register(table)
        except Exception:
            for session, segment in allocated:
                session.free_segment(segment)
            raise
        return table

    def drop_table(self, table) -> None:
        """Free a table's disaggregated memory and deregister it —
        handle, raw :class:`~repro.core.table.FTable` or catalog name.
        Every live, retired and delta segment of every shard's chain is
        freed, and so are the shard replicas, every join build placement
        the table participates in — on either side — and the copies of
        any move still in flight."""
        if isinstance(table, str):
            table = self.catalog.lookup(table)
        table = as_table(table)
        for shard in table.shards:
            self._sessions[shard.node_index].drop_chain(shard.chain)
            self._free_copies(shard.replicas)
        self._retire_placements(table.name)
        self.catalog.deregister(table.name)

    def _retire_placements(self, name: str) -> None:
        """Retire every join build placement table ``name`` takes part
        in, on either side: later joins place anew.  A move in flight
        loses its handle — it then hands its copies to the joins waiting
        on it alone — and copies no scan is probing are freed now."""
        for key in [k for k in self._moves if name in k]:
            del self._moves[key]
        for key in [k for k in self._placements if name in k]:
            placed = self._placements.pop(key)
            placed.retired = True
            self._free_unused(placed)

    def _free_unused(self, placed: _Placement) -> None:
        """Free a retired placement's copies once no scan probes them."""
        if placed.retired and not placed.users:
            self._free_copies(placed.copies.values())

    # -- write verbs: prepare, commit, propagate ----------------------------
    def _write_proc(self, kind: str, table, *args):
        table = self._require_writable(table)
        prepared = yield from self._prepare_proc(kind, table, *args)
        epoch = self._commit(table, prepared)
        yield from self._views_after_commit_proc()
        return epoch

    def insert_proc(self, table, rows: np.ndarray):
        """Process: append ``rows`` as an insert delta (to the last
        shard, the tail of the global row order); returns the new
        epoch."""
        return self._write_proc("insert", table, rows)

    def update_where_proc(self, table, predicate: Expr | None,
                          assignments: dict):
        """Process: offloaded read-modify-write.  The node evaluates
        ``predicate`` over the visible rows and writes an update delta
        with the ``column -> literal`` assignments applied; no table
        bytes cross the wire.  Returns the new epoch."""
        return self._write_proc("update", table, predicate, assignments)

    def delete_where_proc(self, table, predicate: Expr | None):
        """Process: offloaded predicate delete; returns the new epoch."""
        return self._write_proc("delete", table, predicate)

    def snapshot(self, table) -> int:
        """The current committed epoch (every shard agrees on it) — pass
        to ``as_of`` for a repeatable snapshot read."""
        table = as_table(table)
        table.check_epochs()
        return table.epoch

    def _prepare_proc(self, kind: str, table: Table, *args):
        """Process: phase 1 of the epoch broadcast — prepare the write on
        every shard; returns one ``(tag, value)`` outcome per shard.

        An insert appends to the last shard (no-op bumps elsewhere); a
        mistyped batch is refused before any row id is reserved or
        segment allocated.  Updates and deletes scatter their prepares,
        each capturing any Farview error as a value, so one crashed
        shard cannot fail the whole AllOf before the other prepares
        report — :meth:`_commit` then aborts cleanly instead of leaving
        some shards prepared and others not.
        """
        if kind == "insert":
            try:
                rows = np.asarray(args[0], dtype=table.schema.dtype)
            except (TypeError, ValueError) as exc:
                raise QueryError(
                    f"insert into {table.name!r}: rows do not match the "
                    f"table schema {table.schema.dtype}: {exc}") from exc
            last = table.shards[-1]
            prepared = yield from self._sessions[last.node_index] \
                .prepare_delta_proc(kind, last.chain, rows)
            return [("ok", prepared if shard is last else (kind, None, 0, 0))
                    for shard in table.shards]

        def guarded(gen):
            try:
                value = yield from gen
            except FarviewError as exc:
                return ("err", exc)
            return ("ok", value)

        return (yield from self._fan_out_proc(table, kind, [
            (s, guarded(self._sessions[s.node_index].prepare_delta_proc(
                kind, s.chain, *args)))
            for s in table.shards]))

    def _commit(self, table: Table, outcomes: list) -> int:
        """Phase 2 of the epoch broadcast: commit everywhere, or abort.

        Contains no simulation yields, so between phase 1 and this call
        every reader still snapshots the old epoch on *all* shards, and
        after it every reader sees the new epoch on all shards — there
        is no interleaving in which a scatter-gather scan observes a
        half-committed write, and the join build copies placed from the
        table retire in the same step (:meth:`_retire_placements`), so
        no later join probes a copy older than the commit.  On any
        failed prepare the abort frees the prepared delta segments of
        the shards that *did* succeed (best effort — a dead node has
        nothing left to free), verifies no shard epoch moved, and
        re-raises the first failure: either every shard commits (no-op
        bumps included), or none does.
        """
        failures = [value for tag, value in outcomes if tag == "err"]
        if not failures:
            for shard, (_tag, prepared) in zip(table.shards, outcomes):
                shard.chain.commit_delta(*prepared)
            table.check_epochs()
            self._retire_placements(table.name)
            return table.epoch
        for (tag, value), shard in zip(outcomes, table.shards):
            if tag == "ok" and value[1] is not None:
                self._sessions[shard.node_index].release_segments([value[1]])
        table.check_epochs()
        raise failures[0]

    def compact_proc(self, table):
        """Process: fold every shard's delta chain into a fresh base.

        A background maintenance pass: contents and epoch are unchanged,
        but subsequent scans ingest one segment per shard instead of
        base + K deltas.  A shard with no visible rows cannot be given a
        (zero-byte) base: it is skipped while another shard holds rows,
        and an all-empty table is the node's typed refusal.
        """
        table = self._require_writable(table)
        empty = table.num_rows == 0
        yield from self._fan_out_proc(table, "compact", [
            (s, self._sessions[s.node_index].compact_chain_proc(s.chain))
            for s in table.shards if s.chain.num_rows > 0 or empty])
        return table.epoch

    # -- the earlier spellings of the unified verbs ------------------------
    def create_versioned_table(self, *args, **kwargs) -> Table:
        """:meth:`create_table` (every table is a version chain)."""
        return self.create_table(*args, **kwargs)

    def scan_versioned_proc(self, table, query: Query, as_of=None,
                            placement="offload", stats=None):
        """Process: :meth:`far_view_planned_proc`'s route, unrecorded."""
        return self._placed_proc(table, query, placement, stats, as_of=as_of)

    def read_version(self, table, as_of: int | None = None):
        """:meth:`table_read` of the snapshot at ``as_of``."""
        return self.table_read(table, as_of=as_of)

    # -- incremental materialized views (docs/VIEWS.md) ---------------------
    # The client owns the sim-facing half of the view subsystem: it reads
    # the committed delta segments over the wire, charges the circuit's
    # client-side cost, and only then hands the fetched bytes to the
    # yield-free ViewCatalog.apply_refresh fold.  Because every read
    # happens before any state mutation, a typed FaultError mid-refresh
    # surfaces with *no* partial push: the segments stay pending, the
    # pins stay put, and the next refresh (or a rebootstrap_view) picks
    # up from the last consistent epoch.
    def create_view_proc(self, sql: str, name: str | None = None):
        """Process: compile ``sql`` into a circuit and bootstrap it from
        an epoch-consistent MVCC snapshot of every writable input.

        The chain trackers pin their chains *before* any simulated time
        passes, so writes committing mid-bootstrap queue as pending
        deltas on top of the snapshot instead of being half-read.
        Returns the registered :class:`MaterializedView`.
        """
        _parsed, bound = self.catalog.prepare(sql)
        if bound is None:
            raise QueryError("a view is defined by a SELECT statement")
        circuit = compile_circuit(bound)
        engine = self.views
        view_name = engine.fresh_name() if name is None else name
        if view_name in engine.views:
            raise QueryError(f"view {view_name!r} already exists")
        # Fold unconsumed segments first: a tracker shared with an
        # existing view must sit at the chain head before its mirror can
        # double as this view's bootstrap snapshot.
        if engine.has_pending():
            yield from self.refresh_views_proc()
        new_trackers: list[ChainTracker] = []
        for table, handle in circuit.dynamic_tables.items():
            if table in engine.trackers:
                continue
            trackers = []
            for shard in handle.shards:
                tracker = ChainTracker(table, shard.chain)  # pins + listens
                tracker.owner = shard
                trackers.append(tracker)
            engine.trackers[table] = trackers
            new_trackers.extend(trackers)
        view = MaterializedView(view_name, sql, bound, circuit)
        boot: dict[str, ZSet] = {}
        try:
            for tracker in new_trackers:
                image, ids, shipped = yield from self._shard_exec_proc(
                    tracker.owner,
                    lambda _shard, c: self._sessions[c.node_index]
                    .read_chain_proc(c.chain, tracker.processed_epoch))
                tracker.load(tracker.chain.schema.from_bytes(image), ids)
                view.bootstrap_bytes += shipped
            for stage, handle in circuit.static_loads:
                data = yield from self.table_read_proc(handle)
                boot[stage.build_name] = ZSet.from_rows(
                    stage.build_in_schema, handle.schema.from_bytes(data))
                view.bootstrap_bytes += len(data)
            boot_rows = 0
            for table, handle in circuit.dynamic_tables.items():
                boot[table] = ZSet(handle.schema, np.concatenate(
                    [tracker.images for tracker in engine.trackers[table]]))
                boot_rows += boot[table].entry_count
            yield from _client_compute(
                self.sim,
                view_circuit_cost_ns(self.cpu, boot_rows, circuit.depth))
            view.contents = circuit.step(boot)
        except BaseException:
            self._view_abandon_bootstrap(circuit, new_trackers)
            raise
        view.epochs = {table: engine.trackers[table][0].processed_epoch
                       for table in circuit.dynamic_tables}
        engine.register(view)
        return view

    def _view_abandon_bootstrap(self, circuit, new_trackers) -> None:
        """Detach the trackers a failed bootstrap created (only those —
        trackers shared with registered views keep running)."""
        fresh = {id(t) for t in new_trackers}
        engine = self.views
        for table in circuit.dynamic_tables:
            trackers = engine.trackers.get(table)
            if not trackers or not all(id(t) in fresh for t in trackers):
                continue
            del engine.trackers[table]
            for tracker in trackers:
                self._view_free_segments(tracker, tracker.detach())

    def _view_free_segments(self, tracker, segments) -> None:
        self._sessions[tracker.owner.node_index].release_segments(segments)

    def refresh_views_proc(self):
        """Process: fold every unconsumed committed segment into every
        registered view and push the deltas to subscribers.

        Target epochs are captured synchronously up front, all segment
        reads complete before any state changes, and the fold itself is
        yield-free — so refreshes are atomic under both concurrent
        writers and node crashes.  Returns :class:`RefreshStats`.
        """
        engine = self.views
        work, targets = engine.pending_work()
        reads = []
        delta_rows = 0
        for tracker, segment in work:
            data = yield from self._shard_exec_proc(
                tracker.owner,
                lambda _shard, c: self._sessions[c.node_index]
                .table_read_proc(segment.table))
            reads.append((tracker, segment, data))
            delta_rows += segment.num_rows
        if delta_rows:
            depth = max((view.circuit.depth
                         for view in engine.views.values()), default=1)
            yield from _client_compute(
                self.sim, view_circuit_cost_ns(self.cpu, delta_rows, depth))
        stats = engine.apply_refresh(reads, targets)
        for trackers in engine.trackers.values():
            for tracker in trackers:
                self._view_free_segments(tracker, tracker.repin())
        return stats

    def _views_after_commit_proc(self):
        """Process: auto-propagation hook run after every versioned
        commit.  Returns before creating any simulation event when no
        auto-subscribed view has unconsumed input, keeping view-less
        workloads (fig6–fig19) event-for-event identical."""
        if not self.views.needs_auto_refresh():
            return
        yield from self.refresh_views_proc()

    def subscribe(self, view: MaterializedView,
                  auto: bool = True) -> Subscription:
        """Attach a subscriber fed by pushed deltas from ``view``'s
        current epoch on (``auto=False``: only on explicit refreshes)."""
        sub = Subscription(view, auto)
        view.subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        sub.view.subscriptions.remove(sub)

    def drop_view(self, view) -> None:
        """Unregister a view (by handle or name); detaches the chain
        trackers no remaining view needs and frees what their pins
        held."""
        name = view.name if isinstance(view, MaterializedView) else view
        for tracker in self.views.drop(name):
            self._view_free_segments(tracker, tracker.detach())

    def rebootstrap_view_proc(self, view: MaterializedView):
        """Process: rebuild ``view`` from the latest epoch, migrating
        its subscribers — the recovery path after a failed refresh."""
        subs = list(view.subscriptions)
        self.drop_view(view)
        fresh = yield from self.create_view_proc(view.sql, name=view.name)
        for sub in subs:
            sub.rebind(fresh)
            fresh.subscriptions.append(sub)
        return fresh

    # -- join-build placement -------------------------------------------------
    def _free_copies(self, copies) -> None:
        """Return the pool memory of node-local plain copies (shard
        replicas, join build copies) that are still allocated."""
        for rep in copies:
            if rep.chain.base.allocated:
                self._sessions[rep.node_index].free_segment(rep.chain.base)

    def _node_usable(self, node_index: int, incarnation: int | None) -> bool:
        """Can the copy stamped ``incarnation`` on this node still be
        served?  (A crash wipes pool memory: same index, new incarnation,
        empty node.)  An unstamped copy is never ruled out here — its
        node answers for it, typed, while it is down."""
        if incarnation is None:
            return True
        node = self._sessions[node_index].node
        return not node.failed and node.incarnation == incarnation

    @staticmethod
    def _placement_key(build, fact, strategy: str):
        return (build.name, None if strategy == "broadcast" else fact.name)

    def _movement_ns(self, build: Table, fact: Table, strategy: str) -> float:
        """Wire cost of placing ``build`` for ``strategy``
        (:meth:`~repro.core.cost_model.PlacementCostModel.
        join_movement_ns`) — zero when nothing has to move: co-located
        builds already sit beside the fact shards, and a placement with
        live copies is paid for."""
        placed = self._placements.get(
            self._placement_key(build, fact, strategy))
        if placed is not None and placed.copies:
            return 0.0
        model = PlacementCostModel(self._sessions[0].node.config, self.cpu)
        return model.join_movement_ns(
            strategy, build.size_bytes, fact.num_partitions,
            copies=min(fact.partition.replicas, self.num_nodes))

    def _resolve_join_strategy(self, table: Table, arm,
                               requested: str | None = None
                               ) -> Optional[str]:
        """Resolve the scatter strategy for the join ``arm`` — ``None``
        when there is nothing to scatter: no join, or a build side probed
        in place (:func:`~repro.core.cluster.join_strategies`).  An explicit
        ``requested`` strategy is validated against the feasible set
        (a typed error explains an infeasible request); under ``None``
        (auto) the cheapest build-movement cost wins
        (:meth:`_movement_ns`), ties broken toward the strategy that
        moves least."""
        feasible = join_strategies(table, arm)
        if requested is not None:
            if requested not in JOIN_STRATEGIES:
                raise QueryError(
                    f"unknown join strategy {requested!r}; choose from "
                    f"{JOIN_STRATEGIES}")
            if requested not in feasible:
                raise QueryError(
                    f"join strategy {requested!r} is infeasible for "
                    f"{table.name!r}: feasible strategies are "
                    f"{feasible} (none without a join or for a build "
                    f"probed in place; colocated needs both sides "
                    f"hash-partitioned on the join key with matching "
                    f"shard counts; shuffle needs the probe side "
                    f"hash-partitioned on the probe key)")
            return requested
        if len(feasible) <= 1:
            return feasible[0] if feasible else None
        build = as_table(arm.build)
        order = {"colocated": 0, "shuffle": 1, "broadcast": 2}
        return min(feasible, key=lambda s: (
            self._movement_ns(build, table, s), order[s]))

    def _place_build_proc(self, arm, fact: Table, strategy: str):
        """Process: make sure the build side of the join ``arm`` is placed
        for ``strategy``; returns the :class:`_Placement` to probe against.

        One layout, three strategies.  ``colocated`` is the placement
        that already exists — the build's own shards and their ring
        replicas.  ``broadcast`` is one partition whose ring is every
        node; ``shuffle`` is one partition per fact partition, re-keyed
        with the same splitmix64 ``hash_key_batch`` the fact placement
        used, on the fact table's failover ring.  Missing copies are
        written by :meth:`_move_build_proc` (one move in flight per
        placement, shared by concurrent joins) and cached; copies on a
        node that crashed since are invalidated — its pool memory is
        gone, and a stale copy must never be probed against — and
        re-placed onto the survivors.  A move a commit overtook serves
        the joins that waited on it, uncached.
        """
        build = as_table(arm.build)
        if strategy == "colocated":
            return _Placement(
                {(s.node_index, c.node_index): c
                 for s in build.shards for c in s.candidates()},
                frozenset(range(fact.num_partitions))
                - {s.node_index for s in build.shards})
        if strategy == "broadcast":
            num_partitions = 1
            rings = {0: tuple(range(self.num_nodes))}
        else:
            num_partitions = fact.num_partitions
            rings = {s.node_index: (s.node_index,) + replica_nodes(
                         s.node_index, self.num_nodes,
                         fact.partition.replicas)
                     for s in fact.shards}
        key = self._placement_key(build, fact, strategy)
        nodes = [session.node for session in self._sessions]
        for _round in range(self.num_nodes + 2):
            placed = self._placements.get(key)
            if placed is not None:
                for ck in [ck for ck, rep in placed.copies.items()
                           if nodes[ck[1]].incarnation != rep.incarnation]:
                    del placed.copies[ck]
            targets = tuple(
                (partition, node_index)
                for partition, ring in rings.items()
                if placed is None or partition not in placed.empty
                for node_index in ring
                if not nodes[node_index].failed
                and (placed is None
                     or (partition, node_index) not in placed.copies))
            if placed is not None and not targets:
                return placed
            inflight = self._moves.get(key)
            if inflight is None:
                inflight = self._moves[key] = self.sim.process(
                    self._move_build_proc(build, key, arm.build_key,
                                          num_partitions, targets),
                    name=f"cluster.move[{key[0]}->{key[1]}]")
            try:
                moved = yield inflight
            except FaultError:
                # A node died mid-move.  The loop re-evaluates: the dead
                # node drops out of the next round's targets
                # (re-placement onto the survivors only).
                continue
            if moved is not None and moved.retired:
                return moved
        raise NodeFailedError(
            f"could not place {build.name!r} for a {strategy} join: nodes "
            f"kept failing")

    def _move_build_proc(self, build: Table, key, build_key: str,
                         num_partitions: int, targets):
        """Process: the move itself — gather the build's bytes (ordinary
        scatter raw reads), hash-partition them ``num_partitions`` ways
        and write the ``(partition, node)`` copies named by ``targets``,
        all timed through the normal wire/ingest model."""
        written: dict[tuple[int, int], Shard] = {}
        images: dict[int, bytes] = {}  # one image per partition, shared
        by_node: dict[int, list] = {}
        try:
            data = yield from self.table_read_proc(build)
            rows = build.schema.from_bytes(data)
            parts = partition_indices(rows, build.schema,
                                      PartitionSpec("hash", key=build_key),
                                      num_partitions)
            for partition, node_index in targets:
                idx = parts[partition]
                if len(idx) == 0:
                    continue
                if partition not in images:
                    images[partition] = take_rows(rows, idx).tobytes()
                by_node.setdefault(node_index, []).append(
                    (partition, len(idx), images[partition]))
            procs = [
                self.sim.process(
                    self._write_copies_proc(build, node_index, frags,
                                            written),
                    name=f"cluster.move[{key[0]}->{key[1]}@n{node_index}]")
                for node_index, frags in sorted(by_node.items())]
            if procs:
                yield self.sim.all_of(procs)
        except BaseException:
            # A failed move (e.g. a node out of pool memory) must not
            # leave a dead in-flight handle behind — later joins would
            # wait on it forever — nor leak partially written copies.
            self._moves.pop(key, None)
            self._free_copies(written.values())
            raise
        # Publish and retire the in-flight handle in one step (no yields
        # between), so callers see exactly one of the two.  A commit or a
        # drop_table mid-move removes the handle.  After a commit the
        # copies go, retired, to the joins that waited on this move (they
        # started before the commit) and are freed when the last one
        # ends; after a drop they are freed now.  Merge (not replace): a
        # re-placement round after a crash must keep the survivors'
        # valid entries.
        empty = frozenset(p for p, idx in enumerate(parts) if len(idx) == 0)
        if self._moves.pop(key, None) is None:
            if build.name in self.catalog:
                return _Placement(written, empty, retired=True)
            self._free_copies(written.values())
            return None
        placed = self._placements.setdefault(key, _Placement())
        placed.empty = empty
        placed.copies.update(written)
        return placed

    def _write_copies_proc(self, build: Table, node_index: int,
                           frags: list, written: dict):
        """Process: write one node's build copies back-to-back.

        One link per node: a node receiving several partitions (its own
        plus the ring failover copies landing on it) pays each write's
        fixed cost serially — the term that keeps broadcast competitive
        for small builds under k-replication.
        """
        session = self._sessions[node_index]
        for partition, num_rows, image in frags:
            name = f"{build.name}@p{partition}n{node_index}"
            segment = FTable(name, build.schema, num_rows)
            session.alloc_segment(segment)
            written[(partition, node_index)] = Shard(
                node_index, VersionChain(name, build.schema, segment),
                session.node.incarnation)
            yield from session.table_write_proc(segment, image)
            self.replica_bytes_moved += segment.size_bytes

    def _localize_join(self, ops: list, placement: _Placement,
                       partition: int, node_index: int) -> list:
        """Swap the node-local copy of build ``partition`` into one
        shard's chain.

        Raises :class:`NodeFailedError` when the node has no live copy
        (never placed there, or crashed since) — the shard executor
        then fails over to the next candidate node.
        """
        rep = placement.copies.get((partition, node_index))
        if rep is None or not self._node_usable(node_index,
                                                rep.incarnation):
            raise NodeFailedError(
                f"no live copy of build partition {partition} on node "
                f"{node_index}")
        copy = rep.chain.base
        return [replace(op, build=copy) if op.kernel == "join" else op
                for op in ops]

    def _empty_shard_result(self, table: Table, ops: list) -> QueryResult:
        """A zero-row stand-in for a fact shard whose join-build
        partition holds no rows: under co-located and shuffle joins it
        cannot produce output (inner join: nothing to match), and the
        pool cannot even host a zero-byte build table (the MMU rejects
        empty allocations), so the client answers these shards locally —
        zero requests, zero bytes on the wire."""
        schema = table.schema
        if ops:
            schema = estimate_chain(ops, schema, 0,
                                    PlanStats())[-1].schema_out
        return QueryResult(schema=schema, merged=schema.empty(0),
                           report=ExecutionReport(signature="empty-partition"))

    # -- the scatter ---------------------------------------------------------
    def _fan_out_proc(self, table: Table, tag: str, work: list):
        """Process: run ``work`` — one ``(shard, generator)`` per shard
        of ``table`` taking part — in parallel; values in shard order.
        A one-shard table runs inline: no process, no event, so a single
        memory node costs exactly what it costs without a pool."""
        if len(table.shards) == 1:
            values = []
            for _shard, gen in work:
                values.append((yield from gen))
            return values
        procs = [self.sim.process(gen, name=f"cluster.{tag}[{s.chain.name}]")
                 for s, gen in work]
        if not procs:
            return []
        return (yield self.sim.all_of(procs))

    def _scatter_proc(self, table: Table, tag: str, make_proc,
                      skip=frozenset(), allow_degraded: bool = False):
        """Process: the one scatter — run ``make_proc(shard, candidate)``
        for every shard of ``table`` (but those on ``skip`` nodes), each
        with failover + retries (:meth:`_shard_exec_proc`); returns the
        per-shard values in shard order."""
        return self._fan_out_proc(table, tag, [
            (s, self._shard_exec_proc(s, make_proc, allow_degraded))
            for s in table.shards if s.node_index not in skip])

    def _shard_exec_proc(self, shard: Shard, make_proc,
                         allow_degraded: bool = False):
        """Process: run one shard's request with failover + retries.

        Tries the primary, then each replica in fixed ring order
        (deterministic: which copy serves is a pure function of which
        nodes are up; a version chain is its own single candidate).
        Within a candidate the request runs under :meth:`_attempts_proc`
        — retrying as long as the copy stays usable — holding the node
        connection's lock per attempt.  When every candidate is
        exhausted: raise the last fault error, or return
        :data:`_SHARD_LOST` when ``allow_degraded``.
        """
        last_exc: Exception = NodeFailedError(
            f"shard {shard.chain.name!r} has no live candidates")
        for candidate in shard.candidates():
            def usable(c=candidate):
                return self._node_usable(c.node_index, c.incarnation)

            def attempt(c=candidate):
                lock = self._sessions[c.node_index].lock
                yield from lock.acquire()
                try:
                    return (yield from make_proc(shard, c))
                finally:
                    lock.release()

            if not usable():
                last_exc = NodeFailedError(
                    f"node {candidate.node_index} is down or lost shard "
                    f"{candidate.chain.name!r}")
                continue
            try:
                return (yield from self._attempts_proc(
                    attempt, f"shard request {candidate.chain.name!r}",
                    usable))
            except FaultError as exc:
                last_exc = exc  # fail over to the next candidate
        if allow_degraded:
            return _SHARD_LOST
        raise last_exc

    def table_read_proc(self, table, offset: int = 0,
                        length: int | None = None,
                        as_of: int | None = None):
        """Process: the one raw read — the table's visible rows at
        ``as_of`` (default: the current epoch), gathered in shard order
        (:meth:`_NodeSession.read_chain_proc`); returns the bytes.  Under
        ``chunk`` partitioning the concatenation is the table's row
        image; other schemes return shard-order bytes.  A shard whose primary is down
        reads from a replica (byte-identical by construction), so the
        image never changes under failover.  ``offset`` / ``length``
        address a byte range of a one-shard, delta-free table's
        segment."""
        table, epoch = self._bind(table, as_of)
        if (offset or length is not None) and (
                len(table.shards) != 1 or table.has_deltas(epoch)):
            raise QueryError(
                f"table_read of {table.name!r}: a byte range addresses "
                f"the one segment of a one-shard table without deltas")
        parts = yield from self._scatter_proc(
            table, "read",
            lambda _shard, c: self._sessions[c.node_index]
            .read_chain_proc(c.chain, epoch, offset, length))
        return (parts[0][0] if len(parts) == 1
                else b"".join(image for image, _ids, _n in parts))

    def far_view_proc(self, table, query: Query,
                      join_strategy: str | None = None):
        """Process: the Farview verb — lower ``query`` once, scatter the
        shard chain, gather + merge (:meth:`_offload_proc`) over the
        snapshot at the table's current epoch; returns a
        :class:`QueryResult`.  A join's build side is placed under
        ``join_strategy`` (:meth:`_resolve_join_strategy`)."""
        table = as_table(table)
        return self._offload_proc(table, lower_query(query, table.schema),
                                  None, join_strategy)

    def _offload_proc(self, table, ops: list, as_of: int | None = None,
                      join_strategy: str | None = None):
        """Process: the one offloaded scan of the step nodes ``ops`` — a
        lowered Query, or the slice of one a plan offloads.

        The epoch is resolved once, so every shard — and every retry —
        reads the same snapshot; with deltas at it, forced smart
        addressing is refused
        (:func:`~repro.core.pipeline_compiler.over_deltas`).  A join
        places its build side first (:meth:`_place_build_proc`) and holds
        that placement until the scan ends; the chain is localized per
        candidate node lazily, so a failover probes against the
        surviving node's build copy.  Fact shards facing an
        empty build partition are answered client-side, and
        range-partitioned tables skip shards the predicate statically
        excludes (:func:`~repro.core.cluster.prune_scatter_shards`).  A
        one-shard table's result is its shard's own (report + raw
        stream, no rewrite, no gather); many shards merge into one.
        """
        table, epoch = self._bind(table, as_of)
        if table.has_deltas(epoch):
            ops = over_deltas(ops)
        # A strategy pinned for a whole statement does not apply to a
        # fragment whose join stayed on the client.
        arm = next((op for op in ops if op.kernel == "join"), None)
        strategy = self._resolve_join_strategy(
            table, arm, join_strategy if arm is not None else None)
        lone = len(table.shards) == 1
        plan = None if lone else plan_scatter(ops, table,
                                              join_strategy=strategy)
        fragment = ops if lone else plan.shard_chain
        start = self.sim.now
        placement = None
        if strategy is not None:
            placement = yield from self._place_build_proc(arm, table,
                                                          strategy)
            placement.users += 1
        empty = placement.empty if placement is not None else frozenset()
        pruned = frozenset() if lone else frozenset(plan.pruned_nodes)

        def make(shard, candidate):
            local = fragment
            if placement is not None:
                local = self._localize_join(
                    local, placement,
                    0 if strategy == "broadcast" else shard.node_index,
                    candidate.node_index)
            return self._sessions[candidate.node_index]._scan_once_proc(
                candidate.chain, local, epoch)

        try:
            live = iter((yield from self._scatter_proc(
                table, "farview", make, pruned | empty,
                self.allow_degraded and not lone)))
        finally:
            if placement is not None:
                placement.users -= 1
                self._free_unused(placement)
        shard_results = [self._empty_shard_result(table, fragment)
                         if s.node_index in empty else next(live)
                         for s in table.shards if s.node_index not in pruned]
        elapsed = self.sim.now - start
        if lone:
            (result,) = shard_results
            result.response_time_ns = elapsed
            result.join_strategy = strategy
            return result
        return self._gather(table, plan, shard_results, elapsed)

    def _gather(self, table: Table, plan: ScatterPlan, shard_results: list,
                elapsed_ns: float) -> QueryResult:
        """Client-side merge step of the scatter-gather execution.

        Shard slots holding :data:`_SHARD_LOST` (every replica gone,
        degraded mode) are excluded from the merge; the partial result
        then travels on a :class:`DegradedResultError` so a caller can
        never mistake it for a complete answer.
        """
        lost = tuple(i for i, r in enumerate(shard_results)
                     if r is _SHARD_LOST)
        survivors = [r for r in shard_results if r is not _SHARD_LOST]
        if not survivors:
            raise NodeFailedError(
                f"every shard of {table.name!r} is unavailable")
        merged = concat_rows([r.rows() for r in survivors])
        schema, ops, plans = (survivors[0].schema, plan.shard_chain,
                              plan.partial_plans)
        # The merge reads its keys and partial specs off the shard
        # chain's grouping node, over the schema that node reads.
        i = next((i for i, op in enumerate(ops)
                  if op.kernel in ("distinct", "aggregate")), 0)
        if plan.mode == "distinct":
            merged = software_distinct(merged, schema, ops[i].columns).rows
        elif plan.mode != "concat":
            source = (estimate_chain(ops[:i], table.schema, 0,
                                     PlanStats())[-1].schema_out
                      if i else table.schema)
            keys, specs = ops[i].group_by, ops[i].aggregates
            schema = grouped_schema(source, keys, [p.spec for p in plans])
            merged = (merge_group_rows(merged, source, keys, specs, plans)
                      if keys else
                      merge_aggregate_rows(merged, source, specs, plans))
        result = QueryResult(schema=schema, parts=survivors,
                             response_time_ns=elapsed_ns, merged=merged,
                             join_strategy=plan.join_strategy)
        if lost:
            raise DegradedResultError(
                f"{len(lost)} of {len(shard_results)} shards of "
                f"{table.name!r} unavailable", partial=result,
                failed_shards=lost)
        return result


@_with_blocking_verbs
class FarviewClient(ClusterClient):
    """A query thread on a compute node, connected to one Farview node —
    the one-shard pool.  Everything it does is the router's; what it
    adds is the set-up of that case (one session on ``node``) and the
    paper's memory verbs on a raw :class:`~repro.core.table.FTable`
    segment the caller places itself."""

    def __init__(self, node: FarviewNode,
                 buffer_capacity: int = 8 * 1024 * 1024):
        self._attach([node], buffer_capacity)

    @property
    def node(self) -> FarviewNode:
        return self._sessions[0].node

    @property
    def connection(self) -> Connection:
        return self._sessions[0].connection

    def open_connection(self) -> Connection:
        super().open_connection()
        return self.connection

    # -- the paper's memory verbs (§4.2) -------------------------------------
    def alloc_table_mem(self, table: FTable) -> FTable:
        self._sessions[0].alloc_segment(table)
        if table.name not in self.catalog:
            self.catalog.register(as_table(table))
        return table

    def free_table_mem(self, table: FTable) -> None:
        self._sessions[0].free_segment(table)
        self.catalog.deregister(table.name)

    def table_write_proc(self, table: FTable, rows: np.ndarray | bytes):
        """Process: upload ``rows`` (array or raw image) to the buffer
        pool; returns the bytes written."""
        return self._attempts_proc(
            lambda: self._sessions[0].table_write_proc(table, rows),
            "table_write")
