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

**One core, two topologies.**  Everything that does not depend on where
the bytes live is written once, in :class:`_ClientCore`: the blocking
runner, the retry loop, the placement fork and the planned-execution
ladder, the client-side tail of ship / hybrid / compiled executions, the
``select`` / ``select_distinct`` / ``group_by`` / ``sql`` helpers, the
versioned write verbs and the materialized-view verbs.  A concrete
client supplies only its topology primitives:

====================================  =======================================
Primitive                             single node / cluster
====================================  =======================================
``table_read_proc``                   one raw RDMA read / scatter raw reads,
                                      gathered in shard order
``far_view_proc`` (``_offload_proc``)  one offloaded scan (plain or MVCC
                                      snapshot — one node verb) / the
                                      one scatter of the rewritten
                                      fragment, gather + merge
``_plan`` (public ``plan``)           price one node / the pool, folding
                                      the join strategy in
``_ship_read``                        raw read (+ decrypt, + delta merge) /
                                      gathered raw read
``_read_build_rows``                  a shipped join's build side
``_prepare_proc`` + ``_commit``       delta prepare + commit / scatter
                                      prepares + two-phase epoch commit
``_view_chains``                      the version chains behind a handle
join-build placement                  pinning / one ``(partition, node)
                                      -> copy`` map per build: broadcast,
                                      shuffle, co-location
====================================  =======================================

Every verb that takes simulated time exists in two forms: a ``*_proc``
generator to compose inside a running simulation (multi-client
experiments) and a blocking twin that drives the simulator to completion
and returns ``(result, elapsed_ns)`` — the paper's measurement endpoint
is "until the final results are written to the memory of the client
machine" (§6.2), which is exactly when these processes complete.  The
twins are *generated* from the generators (:func:`_with_blocking_verbs`);
only ``scan_versioned`` (placement), ``read_version`` (byte image) and
``far_view_planned`` / ``select`` / ``sql`` (blocking by construction —
they nest blocking reads) are written by hand.

**One result type.**  Every verb that returns rows returns a
:class:`QueryResult`, whatever ran: a direct node execution carries the
node's :class:`~repro.core.node.ExecutionReport` and the raw shipped
stream; a scatter-gather carries its per-shard results as ``parts``; a
planned (ship / hybrid) or compiled execution carries the offloaded
fragment / stage results as ``parts``, the client
:class:`~repro.baselines.cpu_model.CostBreakdown` and the planner's
explain.  ``rows()``, ``data``, ``num_rows``, ``bytes_shipped`` and
``bytes_scanned`` are defined on every instance;
:func:`canonical_result_bytes` is the placement-invariant image.

**Placement.**  ``select`` / ``sql`` / ``scan_versioned`` accept
``placement="auto" | "offload" | "ship"`` (default ``"offload"``: the
paper's path, plan-free and timing-exact) and
:meth:`_ClientCore.far_view_planned` runs any query under the
:mod:`repro.core.planner` decision — offload a prefix of the operator
chain, ship the reduced intermediate, finish with the software kernels
of :mod:`repro.baselines.sw_ops` on the client.  Results are
byte-identical across placements.

**Writes.**  Tables created with ``create_versioned_table`` are mutable
through the versioned write path (:mod:`repro.core.versioning`):

====================================  =======================================
Verb                                  Effect
====================================  =======================================
``create_versioned_table(n, s, r)``   base segment + version chain, epoch 0
``insert(vt, rows)``                  append an insert delta, epoch + 1
``update_where(vt, pred, sets)``      offloaded read-modify-write delta
``delete_where(vt, pred)``            offloaded delete delta
``snapshot(vt)``                      the current committed epoch
``far_view(vt, q)`` / ``select`` /    snapshot scan pinned at the epoch it
``sql`` / ``scan_versioned(as_of=e)`` starts under (delta-merge ingest)
``compact(vt)``                       fold the chain into a fresh base
``drop_table(t)``                     free a plain table or a whole chain
====================================  =======================================

Cluster writes commit through a two-phase epoch broadcast (prepare on
every shard, then one atomic commit step), so cluster-wide snapshot
reads merge sha256-identical to single-node execution.  Cluster tables
are made with ``create_table(name, schema, rows, partition)`` and freed
with ``drop_table``; merged rows come back in single-node output order
(byte-identical under order-preserving ``chunk`` partitioning — see
:mod:`repro.core.cluster` for the exact contract), response time
measured until the *last* shard's results land client-side.
"""

from __future__ import annotations

import functools
import inspect
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..baselines.cpu_model import CostBreakdown, CpuCostModel
from ..baselines.sw_ops import software_decrypt
from ..common.errors import (CatalogError, ConnectionError_,
                             DegradedResultError, FarviewError, FaultError,
                             JoinBuildOverflowError, NodeFailedError,
                             QueryError, RegionFailedError,
                             RequestTimeoutError)
from ..common.records import Schema
from ..operators.aggregate import AggregateSpec
from ..operators.crypto import AesCtr
from ..operators.selection import Predicate
from .catalog import Catalog
from .compile import ParsedWrite, bind_select, parse_sql
from .cost_model import (PlacementCostModel, PlanStats, delta_merge_cost_ns,
                         estimate_chain, view_circuit_cost_ns)
from .planner import (DagPlan, ExplainPlan, PlacementPlan, StagePlan,
                      operator_chain, plan_placement, run_client_join,
                      run_client_kernel, run_client_steps)
from .cluster import (JOIN_STRATEGIES, FarviewCluster, ScatterPlan,
                      ShardedTable, ShardReplica, TableShard,
                      aggregate_output_schema, group_output_schema,
                      join_strategies, merge_aggregate_rows,
                      merge_distinct_rows, merge_group_rows, plan_scatter)
from .faults import RetryPolicy
from .node import Connection, ExecutionReport, FarviewNode
from .partition import PartitionSpec, partition_indices, replica_nodes
from .pipeline_compiler import compile_query
from .query import Query, RegexFilter
from .table import FTable
from .versioning import (ROWID_COLUMN, VersionedShard, VersionedShardedTable,
                         VersionedTable, delta_schema, require_versionable,
                         rows_from_literals)
from .views import (ChainTracker, MaterializedView, Subscription, ViewCatalog,
                    compile_circuit)
from .zset import ZSet


@dataclass
class QueryResult:
    """Client-visible result of any verb that returns rows.

    One shape for every execution.  A *direct* node execution sets
    ``report`` (the node's :class:`ExecutionReport`) and ``stream`` (the
    raw shipped bytes, possibly encrypted, possibly carrying overflow
    duplicates the client dedups).  Every other execution sets
    ``merged`` — the final rows after the client-side work: the
    scatter-gather merge (``parts`` are the per-shard results, shard
    order), or the software remainder of a planned / compiled execution
    (``parts`` are the offloaded fragment or stage results, ``read_bytes``
    what the client read raw, ``client_cost`` the modeled client time —
    already included in ``response_time_ns``, the simulator clock having
    been advanced by it, matching the paper's "until the final results
    are written to the memory of the client machine" endpoint).
    """

    schema: Schema
    response_time_ns: float = 0.0
    #: Node-side execution report; ``None`` unless one node ran this
    #: result's pipeline directly.
    report: Optional[ExecutionReport] = None
    #: :class:`~repro.core.planner.ExplainPlan` (planned executions) or
    #: :class:`~repro.core.planner.DagPlan` (compiled SQL); ``None`` on
    #: the plan-free offload path.
    explain: Optional[ExplainPlan | DagPlan] = None
    #: Sub-results: per-shard results of a scatter-gather, or the
    #: offloaded fragment / stage results of a planned execution.
    parts: list["QueryResult"] = field(default_factory=list)
    client_cost: Optional[CostBreakdown] = None
    #: Resolved scatter strategy of a cluster join (``broadcast`` /
    #: ``colocated`` / ``shuffle``), ``None`` otherwise.
    join_strategy: Optional[str] = None
    stream: Optional[bytes] = field(default=None, repr=False)
    output_key: Optional[tuple[bytes, bytes]] = None  # (key, nonce) if encrypted
    merged: Optional[np.ndarray] = field(default=None, repr=False)
    #: Bytes the client read raw over the wire for this result (shipped
    #: table image, shipped join build sides) outside any sub-result.
    read_bytes: int = 0

    def rows(self) -> np.ndarray:
        """The final rows.  For a direct node result this decodes the
        shipped stream (decrypting the transmission first) and applies
        the client-side software post-processing the paper prescribes:
        deduplicate overflow leakage from the DISTINCT operator (§5.4)
        and merge overflowed GROUP BY partial aggregates."""
        if self.merged is not None:
            return self.merged
        data = self.stream
        if self.output_key is not None:
            key, nonce = self.output_key
            data = AesCtr(key, nonce).process(data)
        rows = self.schema.from_bytes(data)
        if self.report.overflow_keys:
            rows = _software_dedup(rows)
        if self.report.overflow_groups:
            rows = _merge_overflow_groups(rows, self.schema, self.report)
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


def _software_dedup(rows: np.ndarray) -> np.ndarray:
    """Order-preserving exact dedup (the paper's client-side fallback)."""
    seen: set[bytes] = set()
    keep = np.zeros(len(rows), dtype=bool)
    for i in range(len(rows)):
        key = rows[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep[i] = True
    return rows[keep]


def _merge_overflow_groups(rows: np.ndarray, schema: Schema,
                           report: ExecutionReport) -> np.ndarray:
    """Append overflowed groups (partially aggregated server-side)."""
    # The overflow accumulators carry the same spec list as the pipeline's
    # group-by; the report stores (key_bytes -> Accumulator).  Key layout is
    # the group-key schema prefix of the output schema.
    meta = report.overflow_groups.get("__meta__")
    items = [(k, v) for k, v in report.overflow_groups.items()
             if k != "__meta__"]
    if meta is None:
        raise QueryError(
            "overflow groups present but merge metadata missing")
    extra = schema.empty(len(items))
    key_columns, specs, value_columns = meta
    key_schema = schema.project(key_columns)
    for i, (key_bytes, acc) in enumerate(items):
        key_row = key_schema.from_bytes(key_bytes)
        for name in key_columns:
            extra[name][i] = key_row[name][0]
        for spec in specs:
            idx = (value_columns.index(spec.column)
                   if spec.column in value_columns else 0)
            extra[spec.alias][i] = acc.result(spec, idx)
    return np.concatenate([rows, extra])


def _client_compute(sim, ns: float):
    """Process: occupy the simulated clock with client-side software."""
    if ns > 0:
        yield sim.timeout(ns)


def canonical_result_bytes(result: QueryResult) -> bytes:
    """The placement-invariant byte image of a query result.

    ``result.data`` of a direct node execution is the raw shipped stream
    (possibly encrypted, possibly carrying overflow duplicates the
    client dedups).  This helper normalizes every result to
    ``schema.to_bytes(rows())`` so results can be compared across
    placements.
    """
    return result.schema.to_bytes(result.rows())


def _blocking(owner: type, verb: str, proc):
    """The blocking twin of one ``*_proc`` generator method: drive the
    simulator until the process completes, return ``(value,
    elapsed_ns)``.  Signature and docstring are the generator's."""

    @functools.wraps(proc)
    def twin(self, *args, **kwargs):
        return self._run(proc(self, *args, **kwargs), verb)

    twin.__name__ = verb
    twin.__qualname__ = f"{owner.__qualname__}.{verb}"
    twin.__doc__ = (f"Blocking :meth:`{proc.__name__}`; returns "
                    f"``(value, elapsed_ns)``.\n\n{inspect.getdoc(proc)}")
    return twin


def _with_blocking_verbs(cls):
    """Class decorator — the wrapper table.  Every public ``verb_proc``
    generator a concrete client has (its own or the core's) gets its
    blocking twin ``verb``, unless that verb is written by hand
    somewhere in the class (it does more than wrap)."""
    members: dict = {}
    for klass in reversed(cls.__mro__):
        members.update(vars(klass))
    for name, proc in members.items():
        verb = name.removesuffix("_proc")
        if (verb != name and not name.startswith("_")
                and verb not in members):
            setattr(cls, verb, _blocking(cls, verb, proc))
    return cls


class _ClientCore:
    """Everything a client does that does not depend on topology.

    A concrete client sets ``sim``, ``catalog``, ``cpu``, ``views`` and
    ``retry_policy`` and supplies the topology primitives listed in the
    module docstring; the core turns them into the public verb set.
    ``**topology`` on a core verb is forwarded untouched to those
    primitives — ``as_of`` (snapshot epoch of a versioned table) on
    :class:`FarviewClient`, ``join_strategy`` on :class:`ClusterClient`.
    """

    sim: object
    catalog: Catalog
    #: Cost model of the compute node's CPU — prices the client-side
    #: remainder of planned and compiled executions and view circuits.
    cpu: CpuCostModel
    views: ViewCatalog
    #: Optional :class:`~repro.core.faults.RetryPolicy`: per-request
    #: deadline + capped exponential backoff on every *read* verb
    #: (``table_read``, ``far_view`` and everything built on them, on
    #: plain and versioned tables alike) and on ``table_write``, an
    #: idempotent overwrite.  The versioned write verbs (``insert``,
    #: ``update_where``, ``delete_where``, ``compact``) are **not**
    #: retried: a prepare that may have reached the node must not be
    #: applied twice.  ``None`` (default) is the exact pre-fault-layer
    #: request path — no extra simulator events.
    retry_policy: RetryPolicy | None
    #: The catalog handle class this client's write verbs accept.
    _versioned_type: type

    # -- the blocking runner and the retry loop -----------------------------
    def _run(self, proc, name: str):
        """Drive ``proc`` to completion; returns ``(value, elapsed_ns)``."""
        start = self.sim.now
        result = self.sim.run_process(proc, name)
        return result, self.sim.now - start

    def _attempts_proc(self, make_proc, verb: str, usable=None):
        """Process: run ``make_proc()`` under :attr:`retry_policy`.

        Typed fault errors retry with capped exponential backoff (as
        long as ``usable()`` — when given — still holds); a completion
        past the deadline is *discarded* (the late result is never
        returned) and retried, surfacing as
        :class:`RequestTimeoutError` once attempts are exhausted.  With
        no policy installed this *is* ``make_proc()`` — no extra
        generator frame, no simulator events, identical timing.
        """
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
    def _placed(self, table, query: Query, placement: str,
                stats: PlanStats | None = None, lease_manager=None,
                **topology):
        """The one placement fork.  ``"offload"`` is the paper's path —
        no planner, no explain, timing-exact; anything else goes
        through :meth:`far_view_planned`."""
        if placement == "offload":
            return self._run(self._offload_proc(table, query, **topology),
                             "far_view")
        return self.far_view_planned(table, query, placement, stats,
                                     lease_manager, **topology)

    def plan(self, table, query: Query, placement: str = "auto",
             stats: PlanStats | None = None, lease_manager=None,
             refuse_join_offload: bool = False,
             **topology) -> PlacementPlan:
        """Plan (but do not run) ``query``: where should each operator go?

        The estimate accounts for the pipeline currently loaded in the
        connection's dynamic region (a different signature pays the
        partial-reconfiguration charge) and, if a ``lease_manager`` is
        given, for the expected region-lease wait on a saturated pool.
        """
        return self._plan(table, query, placement, stats, lease_manager,
                          refuse_join_offload, **topology)

    def far_view_planned(self, table, query: Query,
                         placement: str = "auto",
                         stats: PlanStats | None = None,
                         lease_manager=None, **topology):
        """Run ``query`` under cost-based placement.

        ``placement="offload"`` plans the full-offload path (byte- and
        timing-identical to :meth:`far_view`); ``"ship"`` reads raw
        bytes and executes all operators in client software; ``"auto"``
        picks the cheapest prefix split.  All variants carry an
        :class:`~repro.core.planner.ExplainPlan` with estimated and
        actual response times.  Under ``"auto"`` two refusals degrade
        instead of failing: a join build that overflows the on-chip
        hash below nominal capacity re-plans with the join on the
        client, and a dead dynamic region falls back to ship (raw reads
        need no region).  Returns ``(result, elapsed_ns)``.
        """
        topology = self._bind(table, **topology)

        def attempt(placement, refuse_join_offload=False):
            plan = self._plan(table, query, placement, stats, lease_manager,
                              refuse_join_offload, **topology)
            if plan is not None and not plan.full_offload:
                return self._run_split(table, query, plan, **topology)
            result, elapsed = self._run(
                self._offload_proc(table, query, **topology), "far_view")
            if plan is not None:
                plan.explain.actual_ns = elapsed
                result.explain = plan.explain
            return result, elapsed

        try:
            return attempt(placement)
        except JoinBuildOverflowError:
            # The compile-time capacity pre-check is nominal; cuckoo
            # kick chains can exhaust below it while actually loading
            # the build.
            if placement != "auto" or query.join is None:
                raise
            return attempt(placement, refuse_join_offload=True)
        except RegionFailedError:
            if placement != "auto":
                raise
            return attempt("ship")

    def _client_side(self, explain, body):
        """The one client-side tail of ship, hybrid and compiled
        executions: open a :class:`CostBreakdown` with the setup charge,
        let ``body(cost)`` fetch and compute (returning ``(rows, schema,
        parts, read_bytes)``), charge the result write, advance the
        simulator clock by the modeled client time and stamp ``explain``
        with the actual response time."""
        sim, cpu = self.sim, self.cpu
        start = sim.now
        cost = CostBreakdown()
        cost.add("setup", cpu.setup_ns())
        rows, schema, parts, read_bytes = body(cost)
        cost.add("write", cpu.write_ns(len(rows) * schema.row_width))
        self._run(_client_compute(sim, cost.total_ns), "client-compute")
        elapsed = sim.now - start
        explain.actual_ns = elapsed
        result = QueryResult(schema=schema, merged=rows,
                             response_time_ns=elapsed, explain=explain,
                             parts=parts, client_cost=cost,
                             read_bytes=read_bytes)
        return result, elapsed

    def _run_split(self, table, query: Query, plan: PlacementPlan,
                   **topology):
        """Ship / hybrid execution of ``plan``: read the shipped join's
        build side, then either the raw table (ship) or the offloaded
        fragment's result (hybrid), and finish with
        :func:`~repro.core.planner.run_client_steps`."""

        def body(cost):
            cpu = self.cpu
            steps = list(plan.client_steps)
            build_rows, read_bytes = None, 0
            if "join" in steps:
                build_rows, read_bytes = self._read_build_rows(
                    query.join.build_table)
                cost.add("read", cpu.read_ns(read_bytes))
            if plan.fragment is None:
                rows, schema, shipped = self._ship_read(table, steps, cost,
                                                        **topology)
                read_bytes += shipped
                parts = []
            else:
                fragment, _ = self._run(
                    self._offload_proc(table, plan.fragment, **topology),
                    "far_view")
                rows, schema = fragment.rows(), fragment.schema
                cost.add("read", cpu.read_ns(fragment.bytes_shipped))
                parts = [fragment]
            rows, schema = run_client_steps(rows, schema, steps, query, cpu,
                                            cost, build_rows=build_rows)
            return rows, schema, parts, read_bytes

        return self._client_side(plan.explain, body)

    # -- compiled SQL: a DAG of placed stages + client kernels --------------
    def _run_stage(self, handle, query: Query, placement: str, stats,
                   dag: DagPlan, name: str) -> QueryResult:
        """Execute one offloadable stage of a compiled DAG and record its
        placement decision.  Each stage is priced independently through
        the planner — the per-stage composition IS the DAG
        generalization of :func:`~repro.core.planner.plan_placement`; a
        stage without an explain ran on the plan-free offload path."""
        result, _ = self._placed(handle, query, placement, stats)
        explain = result.explain
        strategy = ((explain.join_strategy if explain is not None else None)
                    or result.join_strategy)
        notes = ([] if explain is not None else ["pinned"]) \
            + ([f"join={strategy}"] if strategy else [])
        dag.stages.append(StagePlan(
            name, explain.chosen if explain is not None else "offload",
            explain=explain, note=", ".join(notes)))
        return result

    def _run_compiled(self, bound, placement: str, stats):
        """Execute a bound SELECT that leaves work for the client.

        Stage 0 runs the head :class:`~repro.core.query.Query`; each
        :class:`~repro.core.compile.BoundArm` reads its build side (raw,
        or through its own placed Query) and joins client-side; the
        remaining bound kernels (expression projection, aggregation,
        HAVING filter, DISTINCT, ORDER BY, LIMIT) run in client software
        with their modeled cost advancing the simulator clock — the
        same tail, and the same kernels, as :meth:`_run_split`.
        """
        dag = DagPlan(requested=placement)

        def body(cost):
            cpu = self.cpu
            head = self._run_stage(bound.base, bound.query, placement, stats,
                                   dag, "scan")
            rows, schema = head.rows(), head.schema
            parts, read_bytes = [head], 0
            for arm in bound.arms:
                stage_name = f"build({arm.table})"
                if arm.query is None:
                    build_rows, shipped = self._read_build_rows(arm.build)
                    build_schema = arm.build.schema
                    cost.add("read", cpu.read_ns(shipped))
                    read_bytes += shipped
                    dag.stages.append(StagePlan(stage_name, "ship",
                                                note="raw build read"))
                else:
                    build = self._run_stage(arm.build, arm.query, placement,
                                            stats, dag, stage_name)
                    build_rows, build_schema = build.rows(), build.schema
                    parts.append(build)
                rows, schema = run_client_join(rows, schema, build_rows,
                                               build_schema, arm, cpu, cost)
            for op in bound.ops:
                rows, schema = run_client_kernel(op.kernel, op, rows, schema,
                                                 cpu, cost)
            return rows, schema, parts, read_bytes

        return self._client_side(dag, body)

    # -- paper-style higher-level helpers (§4.2's `select`) -----------------
    def select(self, table, columns: list[str] | None,
               predicate: Predicate, vectorized: bool = False,
               placement: str = "offload",
               stats: PlanStats | None = None):
        """``SELECT columns FROM table WHERE predicate``.

        ``placement`` routes through the cost-based planner:
        ``"offload"`` (default, the paper's path), ``"ship"`` (raw read +
        client software), or ``"auto"`` (cheapest split; pass ``stats``
        for better estimates).
        """
        query = Query(projection=tuple(columns) if columns else None,
                      predicate=predicate, vectorized=vectorized,
                      label="select")
        return self._placed(table, query, placement, stats)

    def select_distinct(self, table, columns: list[str]):
        query = Query(projection=tuple(columns), distinct=True,
                      label="distinct")
        return self.far_view(table, query)

    def group_by(self, table, keys: list[str],
                 aggregates: list[AggregateSpec]):
        query = Query(group_by=tuple(keys), aggregates=tuple(aggregates),
                      label="group_by")
        return self.far_view(table, query)

    def sql(self, statement: str, placement: str | None = None,
            stats: PlanStats | None = None):
        """Parse and execute a SQL statement against the catalog.

        SELECTs run against any registered table (versioned scans pin
        the current epoch); ``INSERT INTO ... VALUES``, ``UPDATE ... SET
        ... WHERE`` and ``DELETE FROM ... WHERE`` commit write batches
        against a versioned table and return ``(new_epoch, elapsed_ns)``.
        Placement precedence for reads: the ``placement`` argument, then
        a ``/*+ placement(...) */`` hint, then full offload.  Returns
        ``(result, elapsed_ns)``.
        """
        parsed = parse_sql(statement)
        if isinstance(parsed, ParsedWrite):
            return self._sql_write(self.catalog.lookup(parsed.table), parsed)
        placement = placement or parsed.placement or "offload"
        bound = bind_select(parsed, self.catalog)
        if not bound.arms and not bound.ops:
            # Nothing left for the client: the statement is its head query.
            return self._placed(bound.base, bound.query, placement, stats)
        return self._run_compiled(bound, placement, stats)

    def _require_versioned(self, handle):
        if not isinstance(handle, self._versioned_type):
            raise QueryError(
                f"table {handle.name!r} is not versioned; write statements "
                f"and views need a table created with "
                f"create_versioned_table on this client")
        return handle

    def _sql_write(self, table, parsed: ParsedWrite):
        """Dispatch a parsed INSERT/UPDATE/DELETE to the write verbs."""
        self._require_versioned(table)
        if parsed.kind == "insert":
            rows = rows_from_literals(table.schema, parsed.values)
            return self.insert(table, rows)
        if parsed.kind == "update":
            return self.update_where(table, parsed.predicate,
                                     dict(parsed.assignments))
        return self.delete_where(table, parsed.predicate)

    # -- versioned write verbs: prepare, commit, propagate ------------------
    def _write_proc(self, kind: str, table, *args):
        prepared = yield from self._prepare_proc(kind, table, *args)
        epoch = self._commit(table, prepared)
        yield from self._views_after_commit_proc()
        return epoch

    def insert_proc(self, table, rows: np.ndarray):
        """Process: append ``rows`` as an insert delta (a cluster appends
        to the tail shard); returns the new epoch."""
        return self._write_proc("insert", table, rows)

    def update_where_proc(self, table, predicate: Predicate | None,
                          assignments: dict):
        """Process: offloaded read-modify-write.  The node evaluates
        ``predicate`` over the visible rows and writes an update delta
        with the ``column -> literal`` assignments applied; no table
        bytes cross the wire.  Returns the new epoch."""
        return self._write_proc("update", table, predicate, assignments)

    def delete_where_proc(self, table, predicate: Predicate | None):
        """Process: offloaded predicate delete; returns the new epoch."""
        return self._write_proc("delete", table, predicate)

    def read_version(self, table, as_of: int | None = None):
        """Visible byte image at an epoch; returns (bytes, elapsed_ns)."""
        (rows, _ids, _shipped), elapsed = self._run(
            self.read_version_proc(table, as_of), "read_version")
        return table.schema.to_bytes(rows), elapsed

    # -- incremental materialized views (docs/VIEWS.md) ---------------------
    # The core owns the sim-facing half of the view subsystem: it reads
    # the committed delta segments over the wire, charges the circuit's
    # client-side cost, and only then hands the fetched bytes to the
    # yield-free ViewCatalog.apply_refresh fold.  Because every read
    # happens before any state mutation, a typed FaultError mid-refresh
    # surfaces with *no* partial push: the segments stay pending, the
    # pins stay put, and the next refresh (or a rebootstrap_view) picks
    # up from the last consistent epoch.
    def create_view_proc(self, sql: str, name: str | None = None):
        """Process: compile ``sql`` into a circuit and bootstrap it from
        an epoch-consistent MVCC snapshot of every versioned input.

        The chain trackers pin their chains *before* any simulated time
        passes, so writes committing mid-bootstrap queue as pending
        deltas on top of the snapshot instead of being half-read.
        Returns the registered :class:`MaterializedView`.
        """
        parsed = parse_sql(sql)
        if isinstance(parsed, ParsedWrite):
            raise QueryError("a view is defined by a SELECT statement")
        bound = bind_select(parsed, self.catalog)
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
            for owner, chain in self._view_chains(
                    self._require_versioned(handle)):
                tracker = ChainTracker(table, chain)  # pins + listens now
                tracker.owner = owner
                trackers.append(tracker)
            engine.trackers[table] = trackers
            new_trackers.extend(trackers)
        view = MaterializedView(view_name, sql, bound, circuit)
        try:
            for tracker in new_trackers:
                rows, ids, shipped = yield from tracker.owner \
                    .read_version_proc(tracker.chain, tracker.processed_epoch)
                tracker.load(rows, ids)
                view.bootstrap_bytes += shipped
            for stage, handle in circuit.static_loads:
                data = yield from self.table_read_proc(handle)
                stage.load_static(ZSet.from_rows(
                    stage.build_in_schema,
                    handle.schema.from_bytes(data, copy=True)))
                view.bootstrap_bytes += len(data)
        except BaseException:
            self._view_abandon_bootstrap(circuit, new_trackers)
            raise
        boot: dict[str, ZSet] = {}
        boot_rows = 0
        for table, handle in circuit.dynamic_tables.items():
            zset = ZSet(handle.schema)
            for tracker in engine.trackers[table]:
                tracker.bootstrap_into(zset)
            boot[table] = zset
            boot_rows += zset.entry_count
        yield from _client_compute(
            self.sim,
            view_circuit_cost_ns(self.cpu, boot_rows, circuit.depth))
        view.contents = circuit.step(boot)
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
        owner = tracker.owner
        for segment in segments:
            try:
                owner.node.free_table_mem(owner.connection, segment)
            except FarviewError:
                pass  # a crashed node has nothing left to free

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
            data = yield from tracker.owner.table_read_proc(segment.table)
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


@_with_blocking_verbs
class FarviewClient(_ClientCore):
    """A query thread on a compute node, connected to a Farview node."""

    _versioned_type = VersionedTable

    def __init__(self, node: FarviewNode,
                 buffer_capacity: int = 8 * 1024 * 1024,
                 cpu_model: CpuCostModel | None = None):
        self.node = node
        self.sim = node.sim
        self.catalog = Catalog()
        self._buffer_capacity = buffer_capacity
        self._conn: Connection | None = None
        self.cpu = cpu_model if cpu_model is not None else CpuCostModel()
        self.retry_policy = None
        #: Registered materialized views + their chain trackers.
        self.views = ViewCatalog()

    # -- connection -----------------------------------------------------------
    def open_connection(self) -> Connection:
        if self._conn is not None:
            raise ConnectionError_("connection already open")
        self._conn = self.node.open_connection(self._buffer_capacity)
        return self._conn

    def close_connection(self) -> None:
        conn = self._require_conn()
        self.node.close_connection(conn)
        self._conn = None

    def abandon_connection(self) -> None:
        """Drop the connection handle without a node round trip.

        For a lease holder whose node died mid-lease (fail-stop with
        amnesia): the close RPC cannot reach the node, and the node-side
        state is gone with the crashed incarnation anyway.  Clears the
        client-side handle — and the node's stale connection entry and
        link flow, so a recovered node does not resurrect them —
        keeping lease-manager accounting exact even when
        :meth:`close_connection` raises a
        :class:`~repro.common.errors.FaultError`.
        """
        conn = self._require_conn()
        conn.qp.connected = False
        conn.closed = True
        self.node.connections.pop(conn.qp.qp_id, None)
        self.node.link.unregister_flow(conn.qp.qp_id)
        self._conn = None

    def _require_conn(self) -> Connection:
        if self._conn is None:
            raise ConnectionError_("no open connection; call open_connection")
        return self._conn

    @property
    def connection(self) -> Connection:
        return self._require_conn()

    # -- memory management -------------------------------------------------------
    def alloc_table_mem(self, table: FTable) -> FTable:
        self.node.alloc_table_mem(self._require_conn(), table)
        if table.name not in self.catalog:
            self.catalog.register(table)
        return table

    def free_table_mem(self, table: FTable) -> None:
        self.node.free_table_mem(self._require_conn(), table)
        self.catalog.deregister(table.name)

    def drop_table(self, table: FTable | VersionedTable | str) -> None:
        """Free a table's disaggregated memory and deregister it.

        Accepts a plain :class:`FTable`, a :class:`VersionedTable`
        (every live, retired and delta segment is freed), or a catalog
        name — no reaching into ``catalog.deregister`` or allocator
        internals required.
        """
        if isinstance(table, str):
            table = self.catalog.lookup(table)
        if isinstance(table, VersionedTable):
            conn = self._require_conn()
            for segment in table.drain_segments():
                self.node.free_table_mem(conn, segment)
            self.catalog.deregister(table.name)
            return
        self.free_table_mem(table)

    # -- verbs as processes ----------------------------------------------------------
    def table_write_proc(self, table: FTable, rows: np.ndarray | bytes):
        """Process: upload ``rows`` (array or raw image) to the buffer
        pool; returns the bytes written."""

        def once():
            conn = self._require_conn()
            if isinstance(rows, np.ndarray):
                table.validate_rows(rows)
                data = table.schema.to_bytes(rows)
            else:
                data = bytes(rows)
            return (yield from self.node.serve_write(conn, table, data))

        return self._attempts_proc(once, "table_write")

    def table_read_proc(self, table: FTable, offset: int = 0,
                        length: int | None = None):
        """Process: raw RDMA read; returns the bytes landed in the buffer."""

        def once():
            conn = self._require_conn()
            conn.qp.buffer.reset()
            total = yield from self.node.serve_read(conn, table, offset,
                                                    length)
            return conn.qp.buffer.read(0, total)

        return self._attempts_proc(once, "table_read")

    def far_view_proc(self, table: FTable | VersionedTable, query: Query):
        """Process: the Farview verb; returns a :class:`QueryResult`.

        Accepts a :class:`VersionedTable` too: the scan then runs over
        the MVCC view pinned at the current epoch (see
        :meth:`scan_versioned_proc`).
        """
        return self._offload_proc(table, query)

    def scan_versioned_proc(self, table: VersionedTable, query: Query,
                            as_of: int | None = None):
        """Process: offloaded scan over the snapshot pinned at start.

        The epoch is resolved and pinned before any simulated time
        passes, so writers committing — and compactions retiring
        segments — mid-scan cannot change the bytes this scan returns.
        """
        return self._offload_proc(table, query, as_of)

    def _offload_proc(self, table, query: Query, as_of: int | None = None):
        """Process: one offloaded scan under the retry policy.  A
        versioned table's epoch is resolved once, so every attempt
        reads the same snapshot."""
        if isinstance(table, VersionedTable) and as_of is None:
            as_of = table.epoch
        return (yield from self._attempts_proc(
            lambda: self._scan_once_proc(table, query, as_of), "far_view"))

    def _scan_once_proc(self, table, query: Query, epoch: int | None):
        conn = self._require_conn()
        versioned = isinstance(table, VersionedTable)
        # Pins are taken before any simulated time passes (the compile
        # resolves the same epochs), so a table — or a versioned join
        # build side — being updated or compacted mid-scan cannot change
        # or free the segments this scan reads.
        pins = [(table, table.pin(epoch))] if versioned else []
        build = query.join.build_table if query.join is not None else None
        if isinstance(build, VersionedTable):
            pins.append((build, build.pin(build.epoch)))
        try:
            # Pipelines are stateful/one-shot: always compile a fresh one;
            # the signature keeps region reconfiguration free across
            # repeats.
            source = table
            if versioned:
                source = table.view_at(epoch)
                table, query = source.base, self._versioned_query(query)
            compiled = compile_query(query, table, self.node.config)
            conn.qp.buffer.reset()
            start = self.sim.now
            report = yield from self.node.serve_farview(conn, source,
                                                        compiled)
        finally:
            for pinned, token in reversed(pins):
                self._release_pin(pinned, token)
        if report.overflow_groups:
            report.overflow_groups["__meta__"] = (
                list(query.group_by or ()),
                list(query.aggregates),
                sorted({s.column for s in query.aggregates
                        if not (s.func == "count" and s.column == "*")}))
        return QueryResult(
            schema=compiled.output_schema, report=report,
            stream=conn.qp.buffer.read(0, report.bytes_shipped),
            response_time_ns=self.sim.now - start,
            output_key=query.encrypt_output)

    @staticmethod
    def _versioned_query(query: Query) -> Query:
        """Delta-merge ingest needs the full row stream (like joins), so
        smart addressing is not applicable to versioned scans."""
        if query.smart_addressing:
            raise QueryError(
                "smart addressing is incompatible with versioned scans: "
                "the delta-merge ingest consumes the full row stream")
        if query.smart_addressing is None:
            return replace(query, smart_addressing=False)
        return query

    def _release_pin(self, vt: VersionedTable, token: int) -> None:
        conn = self._require_conn()
        for segment in vt.unpin(token):
            self.node.free_table_mem(conn, segment)

    def read_version_proc(self, table: VersionedTable,
                          as_of: int | None = None):
        """Process: raw RDMA reads of every segment + client-side merge.

        Returns ``(visible_rows, rowids, bytes_shipped)`` — the ship-side
        building block of versioned placement, and the oracle the
        snapshot-isolation tests re-execute."""
        epoch = table.epoch if as_of is None else as_of
        token = table.pin(epoch)
        try:
            view = table.view_at(epoch)
            images: dict[str, bytes] = {}
            shipped = 0
            for segment in view.segment_tables:
                data = yield from self.table_read_proc(segment)
                images[segment.name] = data
                shipped += len(data)
            rows, ids = view.materialize(lambda t: images[t.name])
            return rows, ids, shipped
        finally:
            self._release_pin(table, token)

    def regex_match(self, table: FTable, column: str, pattern: str):
        query = Query(regex=RegexFilter(column, pattern), label="regex")
        return self.far_view(table, query)

    # -- placement primitives ---------------------------------------------------
    def scan_versioned(self, table: VersionedTable, query: Query,
                       as_of: int | None = None, placement: str = "offload",
                       stats: PlanStats | None = None,
                       lease_manager=None):
        """Snapshot scan, optionally under cost-based placement.

        ``placement="offload"`` runs the delta-merge ingest on the node
        (the default); ``"ship"`` reads the raw segments and merges +
        executes client-side; ``"auto"`` picks the cheapest prefix split
        with delta-aware costing (the ship/offload crossover shifts with
        the delta fraction).  Returns ``(result, elapsed_ns)``.
        """
        return self._placed(table, query, placement, stats, lease_manager,
                            as_of=as_of)

    def _bind(self, table, as_of: int | None = None) -> dict:
        """Resolve the snapshot epoch once, before the ladder's nested
        blocking runs give concurrent writers a chance to commit."""
        if isinstance(table, VersionedTable):
            return {"as_of": table.epoch if as_of is None else as_of}
        if as_of is not None:
            raise QueryError(f"as_of needs a versioned table, not "
                             f"{table.name!r}")
        return {}

    def _plan(self, table, query: Query, placement, stats, lease_manager,
              refuse_join_offload: bool = False,
              as_of: int | None = None) -> PlacementPlan:
        versioned: dict = {}
        if isinstance(table, VersionedTable):
            epoch = table.epoch if as_of is None else as_of
            view = table.view_at(epoch)
            query = self._versioned_query(query)
            versioned = dict(total_rows=table.visible_rows_at(epoch),
                             scan_bytes=float(view.scan_bytes),
                             delta_rows=float(view.delta_rows))
            table = view.base
        region = self._require_conn().region
        return plan_placement(query, table, self.node.config,
                              placement=placement, stats=stats,
                              cpu=self.cpu,
                              loaded_signature=region.loaded_pipeline,
                              lease_manager=lease_manager,
                              buffer_capacity=self._buffer_capacity,
                              refuse_join_offload=refuse_join_offload,
                              **versioned)

    def _ship_read(self, table, steps: list[str], cost: CostBreakdown,
                   as_of: int | None = None):
        """Blocking raw read of the whole table for a ship plan; returns
        ``(rows, schema, bytes_shipped)``.  Charges what turning the
        bytes into rows costs the client — the read, a leading
        ``decrypt`` step (consumed from ``steps``), a version chain's
        delta merge."""
        cpu = self.cpu
        if isinstance(table, VersionedTable):
            view = table.view_at(as_of)
            (rows, _ids, shipped), _ = self._run(
                self.read_version_proc(table, as_of), "read_version")
            cost.add("read", cpu.read_ns(shipped))
            cost.add("merge", delta_merge_cost_ns(
                cpu, table.visible_rows_at(as_of), view.delta_rows))
            return rows, table.schema, shipped
        data, _ = self.table_read(table)
        cost.add("read", cpu.read_ns(len(data)))
        if steps and steps[0] == "decrypt":
            data = software_decrypt(data, table.key, table.nonce)
            cost.add("aes", cpu.aes_ns(len(data)))
            del steps[0]
        return table.schema.from_bytes(data), table.schema, len(data)

    def _read_build_rows(self, build):
        """Raw read + decode of a shipped join's build side.

        A versioned build reads every segment of the chain pinned at the
        current epoch and merges client-side (the same oracle
        :meth:`read_version_proc` provides); a plain table is one raw
        RDMA read.  Returns ``(build_rows, bytes_shipped)``.
        """
        if isinstance(build, VersionedTable):
            (rows, _ids, shipped), _ = self._run(
                self.read_version_proc(build), "read_build")
            return rows, shipped
        data, _ = self.table_read(build)
        return build.schema.from_bytes(data), len(data)

    # -- versioned write path (MVCC snapshots + delta segments) -------------------------------
    def create_versioned_table(self, name: str, schema: Schema,
                               rows: np.ndarray) -> VersionedTable:
        """Allocate + upload ``rows`` as the base segment of a version
        chain; registers the :class:`VersionedTable` under ``name``.

        Writes then go through :meth:`insert` / :meth:`update_where` /
        :meth:`delete_where`, each committing a copy-on-write delta
        segment and advancing the table's epoch.
        """
        require_versionable(schema)
        if len(rows) == 0:
            raise QueryError(
                f"versioned table {name!r} needs a non-empty base segment")
        if name in self.catalog:
            raise CatalogError(f"table {name!r} already registered")
        conn = self._require_conn()
        base = FTable(f"{name}#b0", schema, len(rows))
        self.node.alloc_table_mem(conn, base)
        self.table_write(base, rows)
        vt = VersionedTable(name, schema, base,
                            np.arange(len(rows), dtype=np.uint64))
        self.catalog.register(vt)
        return vt

    def snapshot(self, table: VersionedTable) -> int:
        """The current committed epoch — pass to ``as_of`` for a
        repeatable snapshot read."""
        return table.epoch

    # prepare/commit split: the cluster router prepares on every shard
    # before committing any (two-phase epoch broadcast); on one node a
    # write verb is prepare + immediate commit.
    def _prepare_proc(self, kind: str, vt: VersionedTable, *args):
        """Process: build one write's delta segment on the node without
        making it visible; returns ``(kind, segment, num_rows,
        visible_change)`` for :meth:`_commit`."""
        conn = self._require_conn()
        if kind == "insert":
            # The one write verb whose prepare never scans the chain on
            # the node: check §4.4 isolation here, before anything is
            # allocated or committed against a foreign handle.
            self.node.require_access(conn, vt.base)
            rows = np.asarray(args[0], dtype=vt.schema.dtype)
            if len(rows) == 0:
                return (kind, None, 0, 0)
            ids = vt.allocate_rowids(len(rows))
            dschema = delta_schema(vt.schema)
            drows = dschema.empty(len(rows))
            drows[ROWID_COLUMN] = ids
            for column in vt.schema.names:
                drows[column] = rows[column]
            segment = FTable(vt.next_segment_name(), dschema, len(rows))
            self.node.alloc_table_mem(conn, segment)
            yield from self.node.serve_write(conn, segment,
                                             dschema.to_bytes(drows))
            return (kind, segment, len(rows), len(rows))
        serve = (self.node.serve_update_delta if kind == "update"
                 else self.node.serve_delete_delta)
        token = vt.pin(vt.epoch)
        try:
            prepared = yield from serve(conn, vt.view_at(vt.epoch), *args,
                                        vt.next_segment_name())
        finally:
            self._release_pin(vt, token)
        if prepared is None:
            return (kind, None, 0, 0)
        segment, rowids = prepared
        return (kind, segment, len(rowids),
                -len(rowids) if kind == "delete" else 0)

    @staticmethod
    def _commit(vt: VersionedTable, prepared) -> int:
        kind, segment, num_rows, visible_change = prepared
        return vt.commit_delta(kind, segment, num_rows, visible_change)

    def compact_proc(self, table: VersionedTable):
        """Process: fold the delta chain into a fresh base segment.

        A background maintenance pass: contents and epoch are unchanged,
        but subsequent scans ingest one segment instead of base + K
        deltas.  Superseded segments are freed immediately unless an
        in-flight pinned scan still reads them — then they are retired
        and freed when the last such scan ends.  Returns the epoch.
        """
        conn = self._require_conn()
        token = table.pin(table.epoch)
        try:
            new_base, ids = yield from self.node.serve_compact(
                conn, table.view_at(table.epoch),
                f"{table.name}#b{table.compactions + 1}")
        finally:
            self._release_pin(table, token)
        for segment in table.retire_for_compaction(new_base, ids):
            self.node.free_table_mem(conn, segment)
        return table.epoch

    def _view_chains(self, handle: VersionedTable):
        return [(self, handle)]


@dataclass
class _Placement:
    """Where one join's build side lives in the pool.

    ``copies`` maps ``(partition, node_index)`` to the node-local copy
    of that build partition, stamped with the node's incarnation at
    write time (a later crash makes the stamp stale — the copy is gone
    and must never be probed against).  ``empty`` are the partitions
    that hold no build rows: their fact shards probe nothing and are
    answered client-side.
    """

    copies: dict[tuple[int, int], ShardReplica] = field(default_factory=dict)
    empty: frozenset[int] = frozenset()


#: Sentinel a shard executor returns (instead of raising) when every
#: candidate replica of its shard is gone and the caller opted into
#: degraded results.  Filtered out by :meth:`ClusterClient._gather`.
_SHARD_LOST = object()


class _ConnLock:
    """FIFO mutex serializing shard requests on one per-node connection.

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
class ClusterClient(_ClientCore):
    """Scatter-gather router: one query thread over a sharded pool.

    Owns one :class:`FarviewClient` (QP + dynamic region) per node of a
    :class:`~repro.core.cluster.FarviewCluster` and a cluster-level
    :class:`~repro.core.catalog.Catalog` of
    :class:`~repro.core.cluster.ShardedTable`\\ s.  The verbs are the
    core's; the topology primitives below rewrite queries with
    :func:`~repro.core.cluster.plan_scatter`, scatter them to the shards
    that own data, execute with true node-level parallelism, and gather
    client-side — DISTINCT dedup, GROUP BY / aggregate partial
    re-merges included.  Response time runs until the *last* shard's
    results land in client memory, matching the paper's measurement
    endpoint (§6.2).
    """

    _versioned_type = VersionedShardedTable

    def __init__(self, cluster: FarviewCluster,
                 buffer_capacity: int = 8 * 1024 * 1024):
        self.cluster = cluster
        self.sim = cluster.sim
        self.catalog = Catalog()
        self._clients = [FarviewClient(node, buffer_capacity)
                         for node in cluster.nodes]
        self.cpu = self._clients[0].cpu
        #: Join build placements that moved bytes, by ``(build name,
        #: fact name | None)``.  ``broadcast`` is the one-partition
        #: layout whose ring is every node (fact-independent: ``None``);
        #: ``shuffle`` the N-partition layout on the fact table's
        #: placement hash and failover ring.  Copies are immutable (plain
        #: tables only), so a placement stays valid until either table
        #: is dropped — or a node crashes, which invalidates its copies.
        self._placements: dict[tuple[str, str | None], _Placement] = {}
        #: In-flight moves by placement key: concurrent joins needing
        #: the same placement share one move process instead of racing
        #: the cache and leaking the loser's copies.
        self._moves: dict[tuple[str, str | None], object] = {}
        #: Build-side bytes written into pool memory for join placement
        #: (every copy a move wrote).  Co-located joins leave this
        #: untouched — the fig19 zero-replica-bytes assertion.
        self.replica_bytes_moved = 0
        #: Applied per shard request by the scatter router (backoff
        #: between retries on the same candidate, post-completion
        #: deadline check) — see :attr:`_ClientCore.retry_policy`.
        self.retry_policy = None
        #: When True, a read that loses *every* replica of a shard
        #: raises :class:`DegradedResultError` carrying the partial
        #: merge of the surviving shards instead of the bare failure.
        self.allow_degraded = False
        #: One lock per per-node connection: failover may put two shard
        #: requests of one scatter on the same node, and its landing
        #: buffer serves one request at a time.
        self._conn_locks = [_ConnLock(self.sim) for _ in cluster.nodes]
        #: Registered materialized views + their chain trackers — one
        #: tracker per shard chain.
        self.views = ViewCatalog()

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    def node_client(self, index: int) -> FarviewClient:
        """The per-node client behind shard ``index``'s node."""
        return self._clients[index]

    # -- connection ----------------------------------------------------------
    def open_connection(self) -> None:
        """Open one QP + dynamic region on every node of the pool.

        All-or-nothing: if any node cannot grant a region, the regions
        already opened on earlier nodes are released before the error
        propagates.
        """
        opened: list[FarviewClient] = []
        try:
            for client in self._clients:
                client.open_connection()
                opened.append(client)
        except Exception:
            for client in opened:
                client.close_connection()
            raise

    def close_connection(self) -> None:
        for client in self._clients:
            client.close_connection()

    # -- sharded table lifecycle ---------------------------------------------
    def create_table(self, name: str, schema: Schema, rows: np.ndarray,
                     partition: PartitionSpec | None = None) -> ShardedTable:
        """Partition ``rows``, allocate and scatter-write the shards.

        Nodes whose shard would be empty get no shard table; the returned
        :class:`ShardedTable` is registered in the cluster catalog under
        ``name`` and its shard tables are named ``{name}@{node}``.
        """
        if len(rows) == 0:
            raise QueryError(
                f"cannot shard empty table {name!r}; empty shards have no "
                f"disaggregated memory to allocate")
        if name in self.catalog:
            # Fail before any shard is allocated or written — a duplicate
            # name is detectable from catalog information alone.
            raise CatalogError(f"table {name!r} already registered")
        spec = partition if partition is not None else PartitionSpec()
        indices = partition_indices(rows, schema, spec,
                                    self.cluster.num_nodes)
        shards: list[TableShard] = []
        replica_allocs: list[tuple[int, FTable]] = []
        try:
            for node_index, idx in enumerate(indices):
                if len(idx) == 0:
                    continue
                shard_table = FTable(f"{name}@{node_index}", schema, len(idx))
                client = self._clients[node_index]
                client.alloc_table_mem(shard_table)
                # Track the shard before the write so a mid-upload failure
                # still rolls its allocation back.
                shard = TableShard(node_index, shard_table)
                shards.append(shard)
                client.table_write(shard_table, rows[idx])
                shard.incarnation = client.node.incarnation
                # k-replica placement: byte-identical copies on the next
                # ring nodes.  Replicas bypass the per-node catalogs
                # (like broadcast join copies) — only the cluster-level
                # placement knows about them.
                reps: list[ShardReplica] = []
                for rep_node in replica_nodes(node_index,
                                              self.cluster.num_nodes,
                                              spec.replicas):
                    rclient = self._clients[rep_node]
                    rtable = FTable(f"{name}@{node_index}r{rep_node}",
                                    schema, len(idx))
                    rclient.node.alloc_table_mem(rclient.connection, rtable)
                    replica_allocs.append((rep_node, rtable))
                    rclient.table_write(rtable, rows[idx])
                    reps.append(ShardReplica(rep_node, rtable,
                                             rclient.node.incarnation))
                shard.replicas = tuple(reps)
            shard_ranges: dict[int, tuple[float, float]] = {}
            if spec.scheme == "range":
                # Plan-time pruning metadata: each shard's observed key
                # span (recomputable from the deterministic placement,
                # cached here so pruning needs no reads).
                for node_index, idx in enumerate(indices):
                    if len(idx) == 0:
                        continue
                    values = rows[idx][spec.key].astype(np.float64)
                    shard_ranges[node_index] = (float(values.min()),
                                                float(values.max()))
            sharded = ShardedTable(name, schema, len(rows), spec, shards,
                                   num_partitions=self.cluster.num_nodes,
                                   shard_ranges=shard_ranges)
            self.catalog.register(sharded)
        except Exception:
            # All-or-nothing: free any shards already written so a failed
            # create leaves no orphaned pool memory behind.  Deregister a
            # per-node catalog name only if it maps to *this* shard (a
            # duplicate-name create never got to register its shards).
            for shard in shards:
                client = self._clients[shard.node_index]
                shard_name = shard.table.name
                if (shard_name in client.catalog
                        and client.catalog.lookup(shard_name) is shard.table):
                    client.free_table_mem(shard.table)
                else:
                    client.node.free_table_mem(client.connection, shard.table)
            for rep_node, rtable in replica_allocs:
                rclient = self._clients[rep_node]
                rclient.node.free_table_mem(rclient.connection, rtable)
            raise
        return sharded

    def drop_table(self,
                   table: ShardedTable | VersionedShardedTable) -> None:
        """Free every shard's disaggregated memory and deregister.

        Reuses the single-node :meth:`FarviewClient.drop_table` per
        shard, so plain and versioned shard tables (whole chains) are
        handled uniformly.  Shard replicas and every join build
        placement the table participates in — on either side — are
        freed too.
        """
        for shard in table.shards:
            self._clients[shard.node_index].drop_table(shard.table)
            if isinstance(shard, TableShard):
                self._free_copies(shard.replicas)
        # A move in flight loses its handle: it then frees the copies it
        # wrote instead of publishing them.
        for key in [k for k in self._moves if table.name in k]:
            del self._moves[key]
        for key in [k for k in self._placements if table.name in k]:
            self._free_copies(self._placements.pop(key).copies.values())
        self.catalog.deregister(table.name)

    # -- join-build placement -------------------------------------------------
    @staticmethod
    def _require_cluster_build(build) -> ShardedTable:
        if isinstance(build, (VersionedTable, VersionedShardedTable)):
            raise QueryError(
                "versioned build sides are single-node only; materialize "
                "the dimension table into a plain cluster table to join "
                "against it pool-wide")
        if not isinstance(build, ShardedTable):
            raise QueryError(
                "cluster joins need the build table registered in the "
                "cluster catalog (create it with create_table)")
        return build

    def _free_copies(self, copies) -> None:
        """Return the pool memory of node-local table copies (shard
        replicas, join build copies) that are still allocated."""
        for rep in copies:
            if rep.table.allocated:
                client = self._clients[rep.node_index]
                client.node.free_table_mem(client.connection, rep.table)

    def _node_usable(self, node_index: int,
                     incarnation: int | None = None) -> bool:
        """Is the node up — and, if ``incarnation`` is given, still the
        same incarnation that wrote the data we want to read?  (A crash
        wipes pool memory: same index, new incarnation, empty node.)"""
        node = self.cluster.nodes[node_index]
        if node.failed:
            return False
        return incarnation is None or node.incarnation == incarnation

    @staticmethod
    def _placement_key(build, fact, strategy: str):
        return (build.name, None if strategy == "broadcast" else fact.name)

    def _movement_ns(self, build, fact, strategy: str) -> float:
        """Wire cost of placing ``build`` for ``strategy``
        (:meth:`~repro.core.cost_model.PlacementCostModel.
        join_movement_ns`) — zero when nothing has to move: co-located
        builds already sit beside the fact shards, and a placement with
        live copies is paid for."""
        placed = self._placements.get(
            self._placement_key(build, fact, strategy))
        if placed is not None and placed.copies:
            return 0.0
        model = PlacementCostModel(self.cluster.config, self.cpu)
        return model.join_movement_ns(
            strategy, build.size_bytes, fact.num_partitions,
            copies=min(fact.partition.replicas, self.num_nodes))

    def _resolve_join_strategy(self, sharded, query: Query,
                               requested: str | None = None
                               ) -> Optional[str]:
        """Resolve the scatter strategy for a join query.

        An explicit ``requested`` strategy is validated against the
        feasible set (:func:`~repro.core.cluster.join_strategies`) and a
        typed error explains an infeasible request.  Under ``None``
        (auto) the cheapest build-movement cost wins
        (:meth:`_movement_ns`), with ties broken toward the strategy
        that moves least.
        """
        if query.join is None:
            if requested is not None:
                raise QueryError(
                    f"join_strategy={requested!r} given but the query has "
                    f"no join")
            return None
        feasible = join_strategies(sharded, query)
        if requested is not None:
            if requested not in JOIN_STRATEGIES:
                raise QueryError(
                    f"unknown join strategy {requested!r}; choose from "
                    f"{JOIN_STRATEGIES}")
            if requested not in feasible:
                raise QueryError(
                    f"join strategy {requested!r} is infeasible for "
                    f"{sharded.name!r}: feasible strategies are "
                    f"{feasible} (colocated needs both sides "
                    f"hash-partitioned on the join key with matching "
                    f"shard counts; shuffle needs the probe side "
                    f"hash-partitioned on the probe key)")
            return requested
        if len(feasible) == 1:
            return feasible[0]
        build = query.join.build_table
        order = {"colocated": 0, "shuffle": 1, "broadcast": 2}
        return min(feasible, key=lambda s: (
            self._movement_ns(build, sharded, s), order[s]))

    def _place_build_proc(self, join, fact, strategy: str):
        """Process: make sure the build side of ``join`` is placed for
        ``strategy``; returns the :class:`_Placement` to probe against.

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
        re-placed onto the survivors.
        """
        build = self._require_cluster_build(join.build_table)
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
        nodes = self.cluster.nodes
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
                    self._move_build_proc(build, key, join.build_key,
                                          num_partitions, targets),
                    name=f"cluster.move[{key[0]}->{key[1]}]")
            try:
                yield inflight
            except FaultError:
                # A node died mid-move.  The loop re-evaluates: the dead
                # node drops out of the next round's targets
                # (re-placement onto the survivors only).
                pass
        raise NodeFailedError(
            f"could not place {build.name!r} for a {strategy} join: nodes "
            f"kept failing")

    def _move_build_proc(self, build: ShardedTable, key, build_key: str,
                         num_partitions: int, targets):
        """Process: the move itself — gather the build's bytes (ordinary
        scatter raw reads), hash-partition them ``num_partitions`` ways
        and write the ``(partition, node)`` copies named by ``targets``,
        all timed through the normal wire/ingest model."""
        written: dict[tuple[int, int], ShardReplica] = {}
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
                    images[partition] = build.schema.to_bytes(rows[idx])
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
        # between), so callers see exactly one of the two.  A drop_table
        # mid-move removes the handle; the orphaned copies are then
        # freed instead of cached.  Merge (not replace): a re-placement
        # round after a crash must keep the survivors' valid entries.
        if self._moves.pop(key, None) is None:
            self._free_copies(written.values())
            return
        placed = self._placements.setdefault(key, _Placement())
        placed.empty = frozenset(
            p for p, idx in enumerate(parts) if len(idx) == 0)
        placed.copies.update(written)

    def _write_copies_proc(self, build: ShardedTable, node_index: int,
                           frags: list, written: dict):
        """Process: write one node's build copies back-to-back.

        One link per node: a node receiving several partitions (its own
        plus the ring failover copies landing on it) pays each write's
        fixed cost serially — the term that keeps broadcast competitive
        for small builds under k-replication.
        """
        client = self._clients[node_index]
        for partition, num_rows, image in frags:
            table = FTable(f"{build.name}@p{partition}n{node_index}",
                           build.schema, num_rows)
            client.node.alloc_table_mem(client.connection, table)
            written[(partition, node_index)] = ShardReplica(
                node_index, table, client.node.incarnation)
            yield from client.node.serve_write(client.connection, table,
                                               image)
            self.replica_bytes_moved += table.size_bytes

    def _localize_join(self, shard_query: Query, placement: _Placement,
                       partition: int, node_index: int) -> Query:
        """Swap the node-local copy of build ``partition`` into one
        shard's fragment.

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
        spec = replace(shard_query.join, build_table=rep.table)
        return replace(shard_query, join=spec)

    def _empty_shard_result(self, sharded, plan: ScatterPlan) -> QueryResult:
        """A zero-row stand-in for a fact shard whose join-build
        partition holds no rows.

        Under co-located and shuffle joins the build side is partitioned
        on the join key, so a fact shard facing an empty build partition
        cannot produce output (inner join: nothing to match).  The pool
        cannot even host a zero-byte build table (the MMU rejects empty
        allocations), so the client answers these shards locally — zero
        requests, zero bytes on the wire.
        """
        shard_query = plan.shard_query
        chain = operator_chain(shard_query)
        schema = sharded.schema
        if chain:
            schema = estimate_chain(chain, shard_query, sharded.schema, 0,
                                    PlanStats())[-1].schema_out
        return QueryResult(schema=schema, merged=schema.empty(0),
                           report=ExecutionReport(signature="empty-partition"))

    def _read_build_rows(self, build):
        """Scatter-gathered raw read + decode of a shipped join's build
        side.  Returns ``(build_rows, bytes_shipped)``."""
        data, _ = self.table_read(self._require_cluster_build(build))
        return build.schema.from_bytes(data), len(data)

    # -- versioned write path (two-phase epoch broadcast) --------------------
    def create_versioned_table(self, name: str, schema: Schema,
                               rows: np.ndarray,
                               partition: PartitionSpec | None = None
                               ) -> VersionedShardedTable:
        """Chunk-partition ``rows`` into per-node version chains.

        Only order-preserving ``chunk`` partitioning is supported (the
        global visible row order is shard-concatenation order, which is
        what keeps scatter-gather merges byte-identical to single-node
        execution); inserts append to the last shard for the same
        reason.
        """
        spec = partition if partition is not None else PartitionSpec()
        if not spec.order_preserving:
            raise QueryError(
                f"versioned cluster tables require 'chunk' partitioning, "
                f"got {spec.scheme!r}")
        if len(rows) == 0:
            raise QueryError(
                f"cannot shard empty versioned table {name!r}")
        if name in self.catalog:
            raise CatalogError(f"table {name!r} already registered")
        indices = partition_indices(rows, schema, spec,
                                    self.cluster.num_nodes)
        shards: list[VersionedShard] = []
        try:
            for node_index, idx in enumerate(indices):
                if len(idx) == 0:
                    continue
                vt = self._clients[node_index].create_versioned_table(
                    f"{name}@{node_index}", schema, rows[idx])
                shards.append(VersionedShard(node_index, vt))
            sharded = VersionedShardedTable(name, schema, spec, shards)
            self.catalog.register(sharded)
        except Exception:
            for shard in shards:
                self._clients[shard.node_index].drop_table(shard.table)
            raise
        return sharded

    def snapshot(self, table: VersionedShardedTable) -> int:
        """The cluster-wide committed epoch (every shard agrees on it)."""
        table.check_epochs()
        return table.epoch

    def _prepare_proc(self, kind: str, sharded: VersionedShardedTable,
                      *args):
        """Process: phase 1 of the epoch broadcast — prepare the write on
        every shard; returns one ``(tag, value)`` outcome per shard.

        An insert appends to the tail shard (no-op bumps elsewhere).
        Updates and deletes scatter their prepares, each capturing any
        Farview error as a value, so one crashed shard cannot fail the
        whole AllOf before the other prepares report — :meth:`_commit`
        then aborts cleanly instead of leaving some shards prepared and
        others not.
        """
        if kind == "insert":
            last = sharded.last_shard
            prepared = yield from self._clients[last.node_index] \
                ._prepare_proc(kind, last.table, *args)
            return [("ok", prepared if shard is last else (kind, None, 0, 0))
                    for shard in sharded.shards]

        def guarded(gen):
            try:
                value = yield from gen
            except FarviewError as exc:
                return ("err", exc)
            return ("ok", value)

        procs = [
            self.sim.process(
                guarded(self._clients[s.node_index]._prepare_proc(
                    kind, s.table, *args)),
                name=f"cluster.{kind}[{s.table.name}]")
            for s in sharded.shards]
        outcomes = yield self.sim.all_of(procs)
        return list(outcomes)

    def _commit(self, sharded: VersionedShardedTable, outcomes: list) -> int:
        """Phase 2 of the epoch broadcast: commit everywhere, or abort.

        Contains no simulation yields, so between phase 1 and this call
        every reader still snapshots the old epoch on *all* shards, and
        after it every reader sees the new epoch on all shards — there
        is no interleaving in which a scatter-gather scan observes a
        half-committed write.  On any failed prepare the abort frees the
        prepared delta segments of the shards that *did* succeed (best
        effort — a dead node has nothing left to free), verifies no
        shard epoch moved, and re-raises the first failure: either every
        shard commits (no-op bumps included), or none does.
        """
        failures = [value for tag, value in outcomes if tag == "err"]
        if not failures:
            for shard, (_tag, prepared) in zip(sharded.shards, outcomes):
                FarviewClient._commit(shard.table, prepared)
            sharded.epoch += 1
            sharded.check_epochs()
            return sharded.epoch
        for (tag, value), shard in zip(outcomes, sharded.shards):
            if tag != "ok":
                continue
            _kind, segment, _num_rows, _visible = value
            if segment is None:
                continue
            client = self._clients[shard.node_index]
            try:
                client.node.free_table_mem(client.connection, segment)
            except FarviewError:
                pass
        sharded.check_epochs()
        raise failures[0]

    def compact_proc(self, table: VersionedShardedTable):
        """Process: fold every shard's delta chain (epoch unchanged)."""
        procs = [
            self.sim.process(
                self._clients[s.node_index].compact_proc(s.table),
                name=f"cluster.compact[{s.table.name}]")
            for s in table.shards
            if s.table.num_deltas > 0 and s.table.num_rows > 0]
        if procs:
            yield self.sim.all_of(procs)
        return table.epoch

    def _view_chains(self, handle: VersionedShardedTable):
        return [(self._clients[s.node_index], s.table)
                for s in handle.shards]

    # -- verbs as processes --------------------------------------------------
    def _scatter_proc(self, shards, tag: str, make_proc,
                      allow_degraded: bool = False):
        """Process: the one scatter — run ``make_proc(shard, candidate)``
        for every shard in parallel, each with failover + retries
        (:meth:`_shard_exec_proc`); returns the per-shard values in
        shard order."""
        procs = [
            self.sim.process(
                self._shard_exec_proc(s, make_proc, allow_degraded),
                name=f"cluster.{tag}[{s.table.name}]")
            for s in shards]
        if not procs:
            return []
        return (yield self.sim.all_of(procs))

    def _shard_exec_proc(self, shard, make_proc, allow_degraded: bool):
        """Process: run one shard's request with failover + retries.

        Tries the primary, then each replica in fixed ring order
        (deterministic: which copy serves is a pure function of which
        nodes are up; a version chain has no replicas and is its own
        single candidate).  Within a candidate the request runs under
        :meth:`_attempts_proc` — typed fault errors retry as long as the
        node stays usable, a completion past the policy deadline is
        discarded and counted as a timeout — holding the node
        connection's lock per attempt.  When every candidate is
        exhausted: raise the last fault error, or return
        :data:`_SHARD_LOST` when ``allow_degraded``.
        """
        last_exc: Exception = NodeFailedError(
            f"shard {shard.table.name!r} has no live candidates")
        for candidate in shard.candidates():
            def usable(c=candidate):
                return self._node_usable(c.node_index, c.incarnation)

            def attempt(c=candidate):
                lock = self._conn_locks[c.node_index]
                yield from lock.acquire()
                try:
                    return (yield from make_proc(shard, c))
                finally:
                    lock.release()

            if not usable():
                last_exc = NodeFailedError(
                    f"node {candidate.node_index} is down or lost shard "
                    f"{candidate.table.name!r}")
                continue
            try:
                return (yield from self._attempts_proc(
                    attempt, f"shard request {candidate.table.name!r}",
                    usable))
            except FaultError as exc:
                last_exc = exc  # fail over to the next candidate
        if allow_degraded:
            return _SHARD_LOST
        raise last_exc

    def table_read_proc(self, table: ShardedTable):
        """Process: scatter raw reads, gather bytes in shard order.

        Under ``chunk`` partitioning the concatenation is the original
        table image; other schemes return shard-order bytes.  A shard
        whose primary is down reads from a replica (byte-identical by
        construction), so the gathered image never changes under
        failover.
        """
        chunks = yield from self._scatter_proc(
            table.shards, "read",
            lambda _shard, c: self._clients[c.node_index]
            .table_read_proc(c.table))
        return b"".join(chunks)

    def read_version_proc(self, table: VersionedShardedTable,
                          as_of: int | None = None):
        """Process: raw scatter reads + per-shard merges.  Returns
        ``(visible_rows, rowids, bytes_shipped)`` in shard order (row
        ids are shard-local)."""
        epoch = table.epoch if as_of is None else as_of
        parts = yield from self._scatter_proc(
            table.shards, "vread",
            lambda _shard, c: self._clients[c.node_index]
            .read_version_proc(c.table, epoch))
        return (np.concatenate([rows for rows, _ids, _n in parts]),
                np.concatenate([ids for _rows, ids, _n in parts]),
                sum(n for _rows, _ids, n in parts))

    def far_view_proc(self, table: ShardedTable | VersionedShardedTable,
                      query: Query, join_strategy: str | None = None):
        """Process: scatter the shard fragment, gather + merge results.

        Queries with a join place the build side first under the
        resolved strategy (:meth:`_resolve_join_strategy`,
        :meth:`_place_build_proc`): ``broadcast`` caches one full copy
        per node, ``shuffle`` repartitions the build node→node on the
        fact's splitmix64 placement hash, ``colocated`` moves nothing
        (both sides already hash-partitioned on the join key).  Each
        shard request fails over across its replica candidates
        (:meth:`_shard_exec_proc`); the join fragment is localized per
        candidate node lazily, so a failover probes against the
        surviving node's build copy.  Fact shards facing an empty build
        partition are answered client-side (inner join: nothing can
        match), and range-partitioned tables skip shards the predicate
        statically excludes
        (:func:`~repro.core.cluster.prune_scatter_shards`).  A versioned
        table scans the snapshot at its current epoch
        (:meth:`scan_versioned_proc`); its build side is broadcast.
        """
        return self._scan_proc(table, query, join_strategy)

    def scan_versioned_proc(self, table: VersionedShardedTable,
                            query: Query, as_of: int | None = None):
        """Process: scatter-gather snapshot scan.

        The cluster epoch is resolved once up front and every shard scan
        pins it locally (shard epochs always equal the cluster epoch),
        so the merged result is a consistent cluster-wide snapshot even
        with writers committing mid-scatter.
        """
        return self._scan_proc(table, query, None, as_of)

    def _scan_proc(self, table, query: Query, join_strategy: str | None,
                   as_of: int | None = None):
        if as_of is None and isinstance(table, VersionedShardedTable):
            as_of = table.epoch
        strategy = self._resolve_join_strategy(table, query, join_strategy)
        plan = plan_scatter(query, table, join_strategy=strategy)
        start = self.sim.now
        placement = None
        if strategy is not None:
            placement = yield from self._place_build_proc(query.join, table,
                                                          strategy)
        empty = placement.empty if placement is not None else frozenset()

        def make(shard, candidate):
            q = plan.shard_query
            if placement is not None:
                q = self._localize_join(
                    q, placement,
                    0 if strategy == "broadcast" else shard.node_index,
                    candidate.node_index)
            return self._clients[candidate.node_index]._offload_proc(
                candidate.table, q, as_of)

        shards = [s for s in table.shards
                  if s.node_index not in plan.pruned_nodes]
        live = iter((yield from self._scatter_proc(
            [s for s in shards if s.node_index not in empty], "farview",
            make, self.allow_degraded)))
        shard_results = [self._empty_shard_result(table, plan)
                         if s.node_index in empty else next(live)
                         for s in shards]
        return self._gather(table, query, plan, shard_results,
                            self.sim.now - start)

    def _gather(self, sharded: ShardedTable, query: Query,
                plan: ScatterPlan, shard_results: list,
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
                f"every shard of {sharded.name!r} is unavailable")
        parts = [r.rows() for r in survivors]
        stacked = np.concatenate(parts)
        # Grouping and aggregation sit after the join in the chain.
        table_schema = query.post_join_schema(sharded.schema)
        if plan.mode == "group":
            assert query.group_by is not None
            merged = merge_group_rows(stacked, survivors[0].schema,
                                      table_schema, list(query.group_by),
                                      plan.shard_specs, plan.partial_plans)
            schema = group_output_schema(
                table_schema, list(query.group_by),
                [p.spec for p in plan.partial_plans])
        elif plan.mode == "aggregate":
            merged = merge_aggregate_rows(stacked, table_schema,
                                          plan.shard_specs,
                                          plan.partial_plans)
            schema = aggregate_output_schema(
                table_schema, [p.spec for p in plan.partial_plans])
        elif plan.mode == "distinct":
            schema = survivors[0].schema
            merged = merge_distinct_rows(stacked, schema,
                                         query.distinct_columns)
        else:
            schema = survivors[0].schema
            merged = stacked
        result = QueryResult(schema=schema, parts=survivors,
                             response_time_ns=elapsed_ns, merged=merged,
                             join_strategy=plan.join_strategy)
        if lost:
            raise DegradedResultError(
                f"{len(lost)} of {len(shard_results)} shards of "
                f"{sharded.name!r} unavailable", partial=result,
                failed_shards=lost)
        return result

    # -- placement primitives -------------------------------------------------
    def _bind(self, sharded, join_strategy: str | None = None) -> dict:
        return {"join_strategy": join_strategy}

    def _offload_proc(self, sharded, query: Query,
                      join_strategy: str | None = None):
        # A strategy pinned for a whole statement does not apply to a
        # fragment whose join stayed on the client.
        return self.far_view_proc(
            sharded, query, join_strategy if query.join is not None else None)

    def _ship_read(self, sharded: ShardedTable, steps: list[str],
                   cost: CostBreakdown, join_strategy: str | None = None):
        """Blocking gathered raw read of the whole table for a ship
        plan; returns ``(rows, schema, bytes_shipped)``.  The cluster
        layer does not shard encrypted tables, so there is never a
        ``decrypt`` step to consume."""
        data, _ = self.table_read(sharded)
        cost.add("read", self.cpu.read_ns(len(data)))
        return sharded.schema.from_bytes(data), sharded.schema, len(data)

    def _plan(self, sharded, query: Query, placement, stats, lease_manager,
              refuse_join_offload: bool = False,
              join_strategy: str | None = None) -> PlacementPlan | None:
        """Plan ``query`` over the pool: offload, ship, or hybrid.

        Estimates use pool-level cardinalities with per-shard streaming
        parallelism; the region-residency check samples the first
        shard's region (shards are deployed symmetrically).  An optional
        ``lease_manager`` folds per-shard lease contention into the
        offload side.  Join queries fold the resolved scatter strategy
        in: partitioned strategies size the per-node build at ``1/N``,
        an uncached shuffle charges its wire movement against the
        offload side, and the chosen strategy lands on the
        :class:`~repro.core.planner.ExplainPlan` (``ship`` when the
        join stays client-side).  Versioned cluster tables only run
        offloaded — there is nothing to place, so their plan is ``None``.
        """
        if isinstance(sharded, VersionedShardedTable):
            if placement not in ("offload", "auto"):
                raise QueryError(
                    "versioned cluster scans run offloaded only (per-"
                    "shard ship/hybrid placement is a single-node "
                    "feature); use placement='offload'")
            return None
        first = self._clients[sharded.shards[0].node_index]
        strategy = self._resolve_join_strategy(sharded, query, join_strategy)
        join_transfer_ns = 0.0
        join_build_shards = 1
        if strategy in ("colocated", "shuffle"):
            join_build_shards = sharded.num_partitions
        if strategy == "shuffle":
            join_transfer_ns = self._movement_ns(query.join.build_table,
                                                 sharded, strategy)
        return plan_placement(
            query, sharded.shards[0].table, self.cluster.nodes[0].config,
            placement=placement, stats=stats, cpu=self.cpu,
            loaded_signature=first.connection.region.loaded_pipeline,
            lease_manager=lease_manager,
            shards=len(sharded.shards), total_rows=sharded.num_rows,
            buffer_capacity=first._buffer_capacity,
            refuse_join_offload=refuse_join_offload,
            join_strategy=strategy, join_transfer_ns=join_transfer_ns,
            join_build_shards=join_build_shards)
