"""Cost-based operator placement: offload, ship-to-compute, or hybrid.

The paper's interface "is intended to be used by the query compiler in
Farview" (§4.2); this module is the placement half of that compiler.  A
:class:`~repro.core.query.Query` is an ordered operator chain, the
compiler's pipeline order

    decrypt -> regex -> selection -> join -> projection ->
    distinct | group-by | aggregation -> encrypt

and any *prefix* of that chain is a valid offloaded fragment: the node
runs the prefix and ships the (reduced) intermediate, the client runs
the suffix in software (the :mod:`repro.baselines.sw_ops` kernels of the
CPU baselines, so results stay byte-exact).  The planner prices every
split — from "ship everything raw" (k = 0) to "offload everything"
(k = N) — with :class:`~repro.core.cost_model.PlacementCostModel`, and
picks the cheapest.  Every prefix compiles, since the order puts each
producer before its consumers; an encrypted table's ``decrypt`` is
offloaded first or done by the ship read (k = 0); output encryption
pins the query to full offload; a join offloaded pays build ingest and
BRAM fill, a join shipped a raw read of its build plus the client's
hash and probe (:func:`~repro.baselines.sw_ops.software_join`), and a
build too large for the on-chip hash is a typed refusal
(:class:`~repro.common.errors.JoinBuildOverflowError`) that ``auto``
routes to the client instead.

The chain is stated once, by the compiler's
:func:`~repro.core.pipeline_compiler.operator_chain`, as ``Bound*`` step
nodes that each name their ``kernel`` and carry their hints (no client
step runs a ``BoundDecrypt`` or ``BoundEncrypt``).  The node compiles a
prefix slice by the same walk as a whole Query, the estimate reads each
node's own fields, :func:`client_steps` is the suffix (a compiled
statement appends its ``tail``), :func:`run_client_kernel` runs it, and
a view circuit compiles the same list into stages.

The decision, the estimates it was based on, and the eventually measured
time are the one placement record, :class:`ExplainPlan`: one node per
Query, the split a parameter of that node, a compiled statement's node
carrying its client tail and each arm Query's node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as _dc_replace
from typing import Optional

import numpy as np

from ..baselines.cpu_model import CostBreakdown, CpuCostModel
from ..baselines.sw_ops import (
    software_aggregate,
    software_distinct,
    software_groupby,
    software_join,
    software_limit,
    software_regex,
    software_select,
    software_sort,
)
from ..common.config import FarviewConfig
from ..common.errors import JoinBuildOverflowError, QueryError
from ..common.expr import eval_items, items_schema
from ..common.records import Schema
from ..operators.aggregate import grouped_schema
from ..operators.join import join_output_schema
from .cost_model import (PlacementCostModel, PlanStats, delta_merge_cost_ns,
                         estimate_chain, join_cost, kernel_cost)
from .pipeline_compiler import (BoundDecrypt, check_chain, compile_chain,
                                lower_query, operator_chain, over_deltas)
from .query import Query
from .table import FTable, Table, as_table

#: The three user-facing placement modes.
PLACEMENTS = ("auto", "offload", "ship")


def chain_labels(chain: list) -> list[str]:
    """The operator names of ``chain`` an :class:`ExplainPlan` shows."""
    return ["projection" if op.kernel == "eval"
            else "groupby" if op.kernel == "aggregate" and op.group_by
            else op.kernel for op in chain]


def client_steps(chain: list, split: int) -> list:
    """The client's share of ``chain`` split at ``split``: the nodes
    after it, less a leading decrypt (a ship read decrypts as it lands);
    at ``split == 0``, the list a view circuit compiles."""
    return chain[max(split, int(chain[:1] == [BoundDecrypt()])):]


@dataclass
class Candidate:
    """One priced split point."""

    split: int
    label: str                 # "offload" | "ship" | "hybrid@k"
    total_ns: float
    node_ns: float             # offloaded fragment (or raw read) time
    client_ns: float           # software remainder time
    cold: bool


@dataclass
class ExplainPlan:
    """The one placement record: the node of one Query — chosen
    placement per operator (the split), estimated cost of every
    candidate, and (once executed) actual ns.

    A Query run on the plan-free offload path has a node with no
    candidates, its whole chain offloaded.  A compiled statement's
    record is its head Query's node plus ``tail``: the client steps
    after the head, in run order, each join arm's ``join(<table>)``
    step carrying the node of the arm's own build Query (``None``: the
    build was read raw).
    """

    requested: str
    chosen: str                         # "offload" | "ship" | "hybrid"
    split: int
    chain: list[str]
    candidates: list[Candidate] = field(default_factory=list)
    est_chosen_ns: float = float("nan")
    est_offload_ns: float = float("nan")
    est_ship_ns: float = float("nan")
    actual_ns: Optional[float] = None
    #: Distributed-join build strategy for cluster queries: one of
    #: ``broadcast`` / ``colocated`` / ``shuffle`` when the chosen
    #: fragment offloads the join, ``ship`` when the join runs in client
    #: software, ``None`` for join-less or single-node queries.
    join_strategy: Optional[str] = None
    tail: list[tuple[str, Optional[ExplainPlan]]] = field(
        default_factory=list)
    #: The step nodes ``chain`` names; ``ops[:split]`` is offloaded.
    ops: list = field(default_factory=list, repr=False)

    @property
    def placements(self) -> list[tuple[str, str]]:
        """(operator, "offload"|"client") per chain entry."""
        return [(op, "offload" if i < self.split else "client")
                for i, op in enumerate(self.chain)]

    def render(self) -> str:
        lines = [f"Placement plan (requested={self.requested}): "
                 f"{self.chosen}"]
        if self.join_strategy is not None:
            lines.append(f"  join strategy: {self.join_strategy}")
        for op, where in self.placements:
            lines.append(f"  {op:<10} -> {where}")
        if not self.chain:
            lines.append("  (raw read: no offloadable operators)")
        for step, arm in self.tail:
            lines.append(f"  {step:<10} -> client"
                         + (", build read raw" if step.startswith("join")
                            and arm is None else ""))
            if arm is not None:
                lines += ["    " + sub for sub in arm.render().splitlines()]
        for cand in self.candidates:
            marker = "*" if cand.split == self.split else " "
            lines.append(
                f" {marker} {cand.label:<10} est {cand.total_ns / 1000:9.1f} us"
                f"  (node {cand.node_ns / 1000:.1f} + client "
                f"{cand.client_ns / 1000:.1f}"
                + (", cold region" if cand.cold else "") + ")")
        # A compiled statement's estimate prices its head Query only.
        times = ([f"estimated: {self.est_chosen_ns / 1000:.1f} us"
                  + (" (head)" if self.tail else "")]
                 if self.candidates else [])
        if self.actual_ns is not None:
            times.append(f"actual: {self.actual_ns / 1000:.1f} us")
        if times:
            lines.append("  " + ", ".join(times))
        return "\n".join(lines)


def plan_placement(query: Query, table: Table | FTable,
                   config: FarviewConfig, *, as_of: int | None = None,
                   placement: str = "auto",
                   stats: PlanStats | None = None,
                   cpu: CpuCostModel | None = None,
                   loaded_signature: Optional[str] = None,
                   buffer_capacity: int | None = None,
                   refuse_join_offload: bool = False,
                   join_strategy: Optional[str] = None,
                   join_transfer_ns: float = 0.0) -> ExplainPlan:
    """Choose where each operator of ``query`` runs; returns the
    decision's :class:`ExplainPlan`.  The Query is validated and lowered
    here, once (:func:`~repro.core.pipeline_compiler.over_deltas` when
    the snapshot has delta rows): the plan's ``ops[:split]`` is the
    offloaded slice and ``client_steps(ops, split)`` the client's.

    ``table`` (a handle, or a raw :class:`FTable` segment) is priced at
    its snapshot ``as_of`` (default: the current epoch), read off
    :meth:`~repro.core.table.Table.stats_at`: rows, scan bytes (base +
    every delta segment, what a delta-merge ingest streams and a ship
    raw read transfers) and delta rows, whose software merge
    (:func:`~repro.core.cost_model.delta_merge_cost_ns`) the ship side
    pays; its shards stream in parallel.  The first shard's base is the
    compile context.  ``loaded_signature`` is the pipeline resident in
    the client's dynamic region — fragments whose signature differs pay
    the partial-reconfiguration charge.

    ``buffer_capacity`` (per-connection receive buffer, bytes) prunes
    ship/hybrid candidates whose shipped intermediate would not land in
    it; full offload is never pruned (a result that must fit is
    :meth:`far_view`'s contract), and an explicit ``"ship"`` that cannot
    fit raises instead of crashing mid-read.

    ``refuse_join_offload`` drops every candidate whose offloaded
    fragment holds the join — the fallback after the node's on-chip
    build *load* overflowed below the compiler's nominal-capacity
    pre-check (cuckoo kick chains are data-dependent).

    The cluster router passes the resolved distributed-join strategy:
    ``join_strategy`` annotates the explain, and ``join_transfer_ns``
    (a cold shuffle's build movement) is charged to every candidate
    that offloads the join.  A colocated or shuffled build loads only
    its ``1/num_partitions`` fragment into the on-chip hash, so a build
    that overflows broadcast can still offload partitioned.
    """
    if placement not in PLACEMENTS:
        raise QueryError(
            f"placement must be one of {PLACEMENTS}, got {placement!r}")
    stats = stats if stats is not None else PlanStats()
    cost_model = PlacementCostModel(config, cpu)
    table = as_table(table)
    base = table.shards[0].chain.base
    schema = table.schema
    chain = lower_query(query, schema)
    nrows, scan_bytes, delta_rows = table.stats_at(
        table.epoch if as_of is None else as_of)
    if delta_rows:
        chain = over_deltas(chain)
    check_chain(chain, base)    # ship compiles nothing: refuse here for all
    shards = len(table.shards)
    build_parts = (table.num_partitions
                   if join_strategy in ("colocated", "shuffle") else 1)
    scan_total = float(scan_bytes)
    steps = estimate_chain(chain, schema, nrows, stats)

    # Why this query cannot be split/shipped, or None if it can.
    pinned = ("output encryption is produced by the node's pipeline"
              if any(op.kernel == "encrypt" for op in chain) else None)
    if placement == "ship" and pinned:
        raise QueryError(f"cannot ship this query to the client: {pinned}")

    if placement == "offload":
        splits = [len(chain)]
    elif placement == "ship":
        splits = [0]
    elif pinned or not chain:
        splits = [len(chain)]
    else:
        splits = list(range(len(chain) + 1))

    candidates: list[Candidate] = []
    for k in splits:
        # On an operator-less query split 0 == len(chain); an explicit
        # "ship" still means a raw read, not the (empty) offload pipeline.
        shipped = k == 0 and (bool(chain) or placement == "ship")
        fragment = chain[:k]
        arm = next((op for op in fragment if op.kernel == "join"), None)
        if refuse_join_offload and arm is not None:
            continue
        if shipped:
            node_ns = cost_model.ship_bytes_ns(scan_total, shards)
            cold = False
            inter_schema, inter_bytes = schema, scan_total
        else:
            if arm is not None and build_parts > 1:
                # Partitioned strategies load only this shard's build
                # fragment into the on-chip hash; compile (and price)
                # against a 1/N-sized proxy so a build that overflows
                # broadcast can still offload colocated/shuffled.
                frag_rows = max(1, -(-int(arm.build.num_rows) // build_parts))
                arm = _dc_replace(arm, build=FTable(
                    arm.build.name, arm.build.schema, frag_rows))
                fragment = [arm if op.kernel == "join" else op
                            for op in fragment]
            try:
                compiled = compile_chain(fragment, base, config)
            except JoinBuildOverflowError:
                if placement == "offload":
                    raise
                # This prefix would load an oversized build side into the
                # on-chip hash — a typed refusal, not a candidate.  The
                # ship/hybrid-below-join splits remain in the running.
                continue
            if k == 0:
                inter_schema = schema
                inter_bytes = float(nrows * schema.row_width)
            else:
                inter_schema = steps[k - 1].schema_out
                inter_bytes = steps[k - 1].rows_out * inter_schema.row_width
            # A fragment holding the group-by (then maybe the output
            # encryption) flushes its groups.
            flush_groups = sum((step.rows_out for step in steps[:k]
                                if step.op.kernel == "aggregate"
                                and step.op.group_by), 0.0)
            build_bytes = (float(arm.build.size_bytes)
                           if arm is not None else 0.0)
            cold = compiled.signature != loaded_signature
            node_ns = cost_model.offload_ns(
                bytes_in=scan_total, bytes_out=inter_bytes,
                ingest_rate=compiled.ingest_rate,
                fill_cycles=compiled.pipeline.fill_latency_cycles,
                flush_groups=flush_groups, cold=cold, shards=shards,
                build_bytes=build_bytes)
            if arm is not None:
                node_ns += join_transfer_ns
        client_ns = (cost_model.client_ops_ns(steps[k:], inter_schema,
                                              inter_bytes)
                     if k < len(chain) else 0.0)
        if shipped:
            # Shipping a version chain raw: the client also pays the
            # software merge before the remaining operators can run.
            client_ns += delta_merge_cost_ns(cost_model.cpu, nrows,
                                             delta_rows)
        label = ("ship" if shipped
                 else "offload" if k == len(chain) else f"hybrid@{k}")
        if (buffer_capacity is not None and label != "offload"
                and inter_bytes / shards > buffer_capacity):
            # The shipped intermediate cannot land in the client buffer
            # (exact for ship — raw table bytes — estimated for hybrid).
            if placement == "ship":
                raise QueryError(
                    f"cannot ship {int(inter_bytes)} bytes: client buffer "
                    f"holds {buffer_capacity}; raise buffer_capacity or "
                    f"offload")
            continue
        candidates.append(Candidate(split=k, label=label,
                                    total_ns=node_ns + client_ns,
                                    node_ns=node_ns, client_ns=client_ns,
                                    cold=cold))

    if not candidates:
        raise QueryError(
            "no feasible placement: every offload prefix was refused "
            "(join build side exceeds the on-chip hash) and the shipped "
            "intermediate does not fit the client buffer")
    best = min(candidates, key=lambda c: (c.total_ns, -c.split))
    chosen = "hybrid" if best.label.startswith("hybrid") else best.label
    by_label = {c.label: c.total_ns for c in candidates}
    explain = ExplainPlan(
        requested=placement, chosen=chosen, split=best.split,
        chain=chain_labels(chain),
        candidates=candidates, est_chosen_ns=best.total_ns,
        est_offload_ns=by_label.get("offload", float("nan")),
        est_ship_ns=by_label.get("ship", float("nan")), ops=chain)
    if join_strategy is not None and "join" in explain.chain:
        explain.join_strategy = (join_strategy if "join" in
                                 explain.chain[:best.split] else "ship")
    return explain


# ---------------------------------------------------------------------------
# Client software kernels: the one interpreter of "run one sw_ops operator
# over decoded rows and charge CpuCostModel for it"
# ---------------------------------------------------------------------------

def run_client_kernel(op, rows: np.ndarray, schema: Schema,
                      cpu: CpuCostModel, cost: CostBreakdown
                      ) -> tuple[np.ndarray, Schema]:
    """Run the unary step node ``op`` through its ``kernel`` and charge
    its :func:`~repro.core.cost_model.kernel_cost` into ``cost``; returns
    the new ``(rows, schema)``.  The kernels are the LCPU baseline's
    :mod:`~repro.baselines.sw_ops`: output bytes match the node pipeline
    operator for operator.
    """
    kernel, out, growing = op.kernel, schema, False
    if kernel == "regex":
        result = software_regex(rows, op.match.column.name,
                                op.match.engine_pattern)
    elif kernel == "selection":
        result = software_select(rows, op.predicate)
    elif kernel == "eval":
        out = items_schema(op.items, schema)
        result = eval_items(op.items, rows, schema, out)
    elif kernel == "distinct":
        output = software_distinct(rows, schema, op.columns)
        result, growing = output.rows, output.map_resizes > 0
    elif kernel == "aggregate":
        keys, specs = list(op.group_by), list(op.aggregates)
        if keys:
            output = software_groupby(rows, schema, keys, specs)
            result, growing = output.rows, output.map_resizes > 0
        else:
            result = software_aggregate(rows, schema, specs)
        out = grouped_schema(schema, keys, specs)
    elif kernel == "sort":
        result = software_sort(rows, list(op.keys))
    elif kernel == "limit":
        result = software_limit(rows, op.count)
    else:
        raise QueryError(f"unknown client step {kernel!r}")
    for name, ns in kernel_cost(op, len(rows), schema, cpu, growing):
        cost.add(name, ns)
    return result, out


def run_client_join(rows: np.ndarray, schema: Schema,
                    build_rows: np.ndarray, build_schema: Schema, spec,
                    cpu: CpuCostModel, cost: CostBreakdown
                    ) -> tuple[np.ndarray, Schema]:
    """The binary kernel: hash ``build_rows``, probe with ``rows``.
    ``spec`` is the ``join`` step's
    :class:`~repro.core.compile.BoundArm`."""
    payload = list(spec.payload)
    for name, ns in join_cost(len(build_rows), len(rows), cpu):
        cost.add(name, ns)
    rows = software_join(rows, schema, build_rows, build_schema,
                         spec.build_key, spec.probe_key, payload)
    return rows, join_output_schema(schema, build_schema, payload)
