"""Sharded Farview pool: N memory nodes behind one scatter-gather plan.

The paper's deployment model is a *pool* of disaggregated-memory nodes
shared by many compute-side query threads (§1, §4.1); the experiments
exercise one node.  This module adds the pool:

* :class:`FarviewCluster` — owns N independent :class:`FarviewNode`\\ s on
  one simulator.  Each node keeps its own MMU, 100 Gbps link, dynamic
  regions and resource model, so shards execute with true spatial
  parallelism (no shared bottleneck below the client).
* the partition-aware join feasibility checks and plan-time range
  pruning over a :class:`~repro.core.table.Table` — one handle split
  into per-node shards under a :class:`~repro.core.partition.PartitionSpec`.
* :func:`plan_scatter` — rewrites a Query's operator chain (the step
  nodes of :func:`~repro.core.pipeline_compiler.operator_chain`) into
  the chain each shard executes plus the client-side merge mode.
  Non-decomposable aggregates (``avg``) are rewritten into exact partials
  (sum + count) via :func:`~repro.operators.aggregate.decompose_partials`.
* the merge kernels — :func:`merge_group_rows`,
  :func:`merge_aggregate_rows` — which combine per-shard partial
  aggregates into the final answer (a DISTINCT merge is the client's own
  :func:`~repro.baselines.sw_ops.software_distinct`).  Each is an array
  transform on the host's one grouping kernel
  (:func:`~repro.common.records.key_image` +
  :func:`~repro.common.records.first_occurrence`): keys group on their
  exact bytes in first-seen order, and partial columns fold per group
  with :func:`~repro.operators.aggregate.fold_groups`.

Order contract
--------------
With the order-preserving ``chunk`` partitioning, every merge emits rows
in *global first-occurrence order* — exactly the order a single node
produces — so DISTINCT and (overflow-free) GROUP BY results are
byte-identical to single-node execution; the cluster tests pin this with
sha256 digests.  ``hash``/``range`` partitioning keeps results exact as
*sets* but interleaves shard order.  Floating-point ``sum``/``avg``
partials merge associatively, which matches single-node bytes for integer
columns (exact in float64) but may differ in the final ulp for float
columns.

The scatter-gather *router* that drives this module from the client side
is :class:`~repro.core.api.ClusterClient`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..common.config import FarviewConfig
from ..common.errors import QueryError
from ..common.expr import BoolAnd, BoolOr, Cmp, Col
from ..common.records import Schema, first_occurrence, key_image
from ..operators.aggregate import (AggregateSpec, PartialPlan,
                                   decompose_partials, fold_groups,
                                   grouped_schema)
from ..sim.engine import Simulator
from .node import FarviewNode
from .table import as_table

#: Scatter-level strategies for executing a distributed join's build
#: side.  ``ship`` (client-side software join) is the fourth strategy of
#: the costed decision but lives at the placement-planner level
#: (:func:`~repro.core.planner.plan_placement` prices it as the split
#: below the join), not at the scatter level.
JOIN_STRATEGIES = ("broadcast", "colocated", "shuffle")


class FarviewCluster:
    """A pool of independent Farview nodes sharing one simulation clock.

    Nodes are homogeneous (same :class:`FarviewConfig`) and completely
    independent below the client: separate DRAM channels, links and
    dynamic-region pools.  Scale-out therefore comes from sharding tables
    across nodes and scattering queries — the client-side router
    (:class:`~repro.core.api.ClusterClient`) does both.
    """

    def __init__(self, sim: Simulator, num_nodes: int,
                 config: FarviewConfig | None = None):
        if num_nodes <= 0:
            raise QueryError(f"cluster needs at least one node: {num_nodes}")
        self.sim = sim
        self.config = config if config is not None else FarviewConfig()
        self.nodes: list[FarviewNode] = [
            FarviewNode(sim, self.config) for _ in range(num_nodes)]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> FarviewNode:
        return self.nodes[index]

    @property
    def free_regions(self) -> int:
        """Dynamic regions currently free across the whole pool."""
        return sum(node.free_regions for node in self.nodes)

    def __repr__(self) -> str:
        return (f"FarviewCluster({self.num_nodes} nodes, "
                f"{self.free_regions} free regions)")


def pool_nodes(target, owner: str) -> list[FarviewNode]:
    """The nodes of a node, a cluster or a sequence of nodes sharing one
    simulator; ``owner`` names the caller in the refusal."""
    if isinstance(target, FarviewNode):
        return [target]
    nodes = list(getattr(target, "nodes", None)
                 or (target if isinstance(target, Sequence) else ()))
    if not nodes or not all(isinstance(n, FarviewNode) for n in nodes):
        raise QueryError(
            f"{owner} needs a FarviewNode, a FarviewCluster, or a "
            f"non-empty sequence of nodes; got {target!r}")
    if len({id(n.sim) for n in nodes}) != 1:
        raise QueryError(f"all of {owner}'s nodes must share one simulator")
    return nodes


# -- partition-aware join strategy feasibility --------------------------------

def hash_partitioned_on(table, key: str) -> bool:
    """Is ``table`` hash-partitioned on exactly ``key``?  (The binder's
    stub catalogs carry name + schema only: no partition, no.)"""
    part = getattr(table, "partition", None)
    return part is not None and part.scheme == "hash" and part.key == key


def colocated_compatible(fact, build, probe_key: str, build_key: str) -> bool:
    """Can ``fact JOIN build`` run shard-local with zero data movement?

    Requires both sides hash-partitioned on their join key with the same
    partition modulus *and* byte-compatible key columns (the splitmix64
    placement hash runs over the key's byte image, so equal values only
    co-locate when their serialized widths match).  A hash-partitioned
    table is never written, so its shards' bytes are its rows.
    """
    if not (hash_partitioned_on(fact, probe_key)
            and hash_partitioned_on(build, build_key)):
        return False
    if fact.num_partitions != build.num_partitions:
        return False
    fcol = fact.schema.column(probe_key)
    bcol = build.schema.column(build_key)
    return fcol.width == bcol.width and fcol.kind == bcol.kind


def join_strategies(table, arm) -> tuple[str, ...]:
    """Feasible scatter strategies for the join ``arm`` (the chain's
    :class:`~repro.core.compile.BoundArm`, or ``None``).

    None for a build side the pool does not copy — one with deltas at
    its current epoch (its visible rows are a merge, and they change) or
    a segment the caller placed itself: it is probed **in place**,
    pinned at its current epoch, so it must be one shard on the node of
    a one-shard fact table (every single-node join).  Otherwise
    ``broadcast`` is always feasible: the copies hold the build's rows
    at the epoch they were placed, and a commit to it retires them.  When
    the fact side is hash-partitioned on the probe key, the build side
    can be repartitioned node→node on the same splitmix64 hash
    (``shuffle``); when the build side is *also* hash-partitioned on the
    join key with a compatible shard map, the join runs shard-local with
    zero replica bytes (``colocated``).
    """
    if arm is None:
        return ()
    build = as_table(arm.build)
    if build.partition is None or build.has_deltas(build.epoch):
        if not (len(table.shards) == 1 == len(build.shards)
                and table.shards[0].node_index == build.shards[0].node_index):
            why = ("is caller-placed" if build.partition is None
                   else "has deltas at its epoch")
            raise QueryError(
                f"build side {build.name!r} {why}: it is probed in place, "
                f"never copied, so the fact table must be one shard on the "
                f"same node; compact it, or materialize it with "
                f"create_table, to join against it pool-wide")
        return ()
    feasible = ["broadcast"]
    if hash_partitioned_on(table, arm.probe_key):
        feasible.append("shuffle")
        if colocated_compatible(table, build, arm.probe_key, arm.build_key):
            feasible.append("colocated")
    return tuple(feasible)


# -- plan-time range pruning ---------------------------------------------------

def _interval_may_match(pred, key: str, lo, hi) -> bool:
    """May any value in the closed interval ``[lo, hi]`` satisfy ``pred``?

    ``lo`` / ``hi`` are numpy scalars of the key's dtype, so they promote
    with the literal as ``eval_mask`` does (monotonically).  Conservative:
    anything not provably empty (NOT, a non-numeric literal, predicates
    on other columns) keeps the shard.
    """
    if isinstance(pred, Cmp) and pred.left == Col(key):
        v = pred.right.value
        if not isinstance(v, numbers.Real):
            return True
        if pred.op == "<":
            return lo < v
        if pred.op == "<=":
            return lo <= v
        if pred.op == ">":
            return hi > v
        if pred.op == ">=":
            return hi >= v
        if pred.op == "==":
            return lo <= v <= hi
        if pred.op == "!=":
            return not (lo == hi == v)
        return True
    if isinstance(pred, BoolAnd):
        return (_interval_may_match(pred.left, key, lo, hi)
                and _interval_may_match(pred.right, key, lo, hi))
    if isinstance(pred, BoolOr):
        return (_interval_may_match(pred.left, key, lo, hi)
                or _interval_may_match(pred.right, key, lo, hi))
    return True


def prune_scatter_shards(table, chain: list) -> tuple[int, ...]:
    """Node indices of shards statically excluded by the predicate of
    ``chain``'s filter.

    Range-partitioned tables record each shard's observed ``[min, max]``
    key span at create time; a shard whose span cannot satisfy a range
    predicate on the partition key contributes no rows and is skipped at
    plan time.  At least one shard is always kept so the scatter has a
    result stream to gather (an all-pruned query returns zero rows
    through the ordinary merge).
    """
    part, spans = table.partition, table.shard_ranges
    predicate = next((op.predicate for op in chain
                      if op.kernel == "selection"), None)
    if (part is None or part.scheme != "range" or not spans
            or predicate is None):
        return ()
    pruned = []
    for shard in table.shards:
        span = spans.get(shard.node_index)
        if span is None:
            continue
        if not _interval_may_match(predicate, part.key, span[0], span[1]):
            pruned.append(shard.node_index)
    if len(pruned) == len(table.shards):
        pruned = pruned[1:]  # keep one stream for the gather
    return tuple(pruned)


# -- scatter planning ----------------------------------------------------------

@dataclass(frozen=True)
class ScatterPlan:
    """How one chain fans out to shards and folds back together.

    ``mode`` selects the gather kernel: ``concat`` (stateless operators —
    selection, projection, regex — just concatenate), ``distinct``
    (first-wins dedup on the key columns), ``group`` (re-merge partial
    groups), ``aggregate`` (merge one partial row per shard).  The
    ``shard_chain``'s aggregate node carries the partial specs.

    ``join_strategy`` records the resolved scatter strategy for a join
    (one of :data:`JOIN_STRATEGIES`, or ``None`` for join-less
    chains); ``pruned_nodes`` are shards statically excluded by a range
    predicate on the partition key (:func:`prune_scatter_shards`).
    """

    shard_chain: list
    mode: str
    partial_plans: tuple[PartialPlan, ...] = ()
    join_strategy: Optional[str] = None
    pruned_nodes: tuple[int, ...] = ()


def plan_scatter(chain: list, table=None,
                 join_strategy: Optional[str] = None) -> ScatterPlan:
    """Rewrite ``chain`` into its shard chain + merge mode.

    Joins scatter unchanged: the router places the build side first
    (:meth:`~repro.core.api.ClusterClient._place_build_proc`) and swaps
    the node-local copy into each shard's fragment.  Under
    ``broadcast`` that copy is the full dimension table, so every shard
    probes its fact rows against all of it; under ``colocated`` /
    ``shuffle`` it is the node-local build *partition* (a pre-placed
    shard, or a repartitioned fragment), so each shard probes only the
    keys that can match its rows.  The
    merge mode is decided by the operators *after* the join —
    probe-order concatenation under chunk partitioning is exactly the
    single-node probe order, which keeps joined results byte-identical.

    ``table`` (optional — the fact-side
    :class:`~repro.core.table.Table`) enables plan-time range pruning;
    ``join_strategy`` is recorded verbatim (the
    router resolves it via
    :meth:`~repro.core.api.ClusterClient._resolve_join_strategy`).
    """
    pruned = (prune_scatter_shards(table, chain)
              if table is not None else ())
    for i, op in enumerate(chain):
        if op.kernel == "aggregate":
            shard_specs, plans = decompose_partials(op.aggregates)
            shard_chain = [*chain[:i], replace(op, aggregates=tuple(
                shard_specs)), *chain[i + 1:]]
            return ScatterPlan(shard_chain,
                               "group" if op.group_by else "aggregate",
                               tuple(plans), join_strategy, pruned)
        if op.kernel == "distinct":
            return ScatterPlan(chain, "distinct",
                               join_strategy=join_strategy,
                               pruned_nodes=pruned)
    return ScatterPlan(chain, "concat",
                       join_strategy=join_strategy, pruned_nodes=pruned)


# -- merge kernels -------------------------------------------------------------

def merge_group_rows(rows: np.ndarray, table_schema: Schema,
                     key_columns: Sequence[str],
                     shard_specs: Sequence[AggregateSpec],
                     partial_plans: Sequence[PartialPlan]) -> np.ndarray:
    """Re-merge concatenated per-shard partial groups into final groups.

    ``rows`` carry the shard output schema (keys + partial columns); the
    result carries the single-node output schema (keys + original
    aggregate columns), with groups in first-occurrence order.
    """
    first, group = first_occurrence(key_image(rows, key_columns))
    out = grouped_schema(table_schema, key_columns,
                         [p.spec for p in partial_plans]).empty(len(first))
    for name in key_columns:
        out[name] = rows[name][first]
    # Each group's partial rows fold into exact merged partials: one
    # column per shard alias, one element per group.
    merged = {spec.alias: fold_groups(spec.func, rows[spec.alias], first,
                                      group)
              for spec in shard_specs}
    for plan in partial_plans:
        out[plan.spec.alias] = plan.finalize(merged)
    return out


def merge_aggregate_rows(rows: np.ndarray, table_schema: Schema,
                         shard_specs: Sequence[AggregateSpec],
                         partial_plans: Sequence[PartialPlan]) -> np.ndarray:
    """Merge the one-partial-row-per-shard results of a standalone
    aggregation into the single final row: the group merge over zero key
    columns, where every row shares the one empty key.

    One rule differs.  A group's MIN/MAX keeps a NaN only as its first
    value; a global one takes a NaN from anywhere (the reference is
    ``col.min()`` over the whole column), so from any shard's partial."""
    out = merge_group_rows(rows, table_schema, (), shard_specs,
                           partial_plans)
    for plan in partial_plans:
        if plan.spec.func in ("min", "max"):
            partials = rows[plan.spec.alias]
            nans = partials[partials != partials]
            if len(nans):
                out[plan.spec.alias] = nans[0]
    return out

