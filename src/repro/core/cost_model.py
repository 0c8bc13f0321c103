"""Calibrated cost model for operator placement: offload vs ship-to-compute.

The paper assumes "the query compiler in Farview" decides what to push
into the memory node (§4.2) but never spells the decision out.  This
module supplies the missing arithmetic: given a query's operator chain and
a few cardinality statistics, it prices

* the **offload** side — the Farview pipeline cost: request traversal,
  region setup (partial reconfiguration when the region holds a different
  bitstream), pipeline fill, table ingest at the compiled ingest rate
  overlapped with network egress of the *reduced* result, and the
  group-by flush tail;
* the **ship** side — streaming the raw table bytes to the compute node
  over the same link and running the remaining operators in software,
  priced with the LCPU :class:`~repro.baselines.cpu_model.CpuCostModel`
  (DRAM scan, per-tuple predicate/hash/aggregate costs, result
  materialization).

Every constant traces back to :mod:`repro.common.calibration`; the model
is deterministic, so the planner's decisions are unit-testable (the
golden crossover tests pin them).  Accuracy target is "right side of the
crossover", not ns-exactness — :class:`~repro.core.planner.ExplainPlan`
reports estimated vs actual so drift is observable.

Why shipping can win at all: with a *warm* region Farview dominates the
CPU baselines everywhere (Figures 8-12), so for resident pipelines the
planner simply offloads.  The contested regime is ad-hoc work: a cold
region must be partially reconfigured first.  That fixed offload penalty
must be amortized against the egress reduction, and small tables, wide
tuples or unselective queries tip the balance toward shipping raw bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..baselines.cpu_model import CpuCostModel
from ..common import calibration as cal
from ..common.config import FarviewConfig
from ..common.errors import QueryError
from ..common.expr import items_schema
from ..common.records import Schema
from ..operators.aggregate import grouped_schema
from ..operators.join import join_output_schema

#: Estimated-unique-entry count above which the software hash map is
#: priced with its growth/rehash surcharge (the map starts small and
#: doubles; beyond ~1k resident entries the amortized resize cost shows).
HASHMAP_GROWTH_THRESHOLD = 1024


@dataclass(frozen=True)
class PlanStats:
    """Cardinality statistics the planner uses for cost estimation.

    Defaults are deliberately conservative mid-range guesses; callers
    with real knowledge (experiments know their generated selectivity, a
    real engine would keep table statistics) should pass better ones.
    """

    #: Fraction of tuples surviving the predicate (1.0 = keep all).
    selectivity: float = 0.5
    #: Fraction of tuples whose string column matches the regex.
    regex_selectivity: float = 0.5
    #: Unique fraction of the DISTINCT key (1.0 = all rows unique).
    distinct_ratio: float = 0.1
    #: Expected number of GROUP BY groups.
    groups: int = 64
    #: Fraction of probe tuples finding a build-side match (1.0 = every
    #: fact row hits the dimension table — the star-schema foreign-key
    #: default).
    join_match_ratio: float = 1.0

    def __post_init__(self) -> None:
        for name in ("selectivity", "regex_selectivity", "distinct_ratio",
                     "join_match_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise QueryError(f"{name} out of [0, 1]: {value}")
        if self.groups < 1:
            raise QueryError(f"groups must be >= 1: {self.groups}")


@dataclass
class CardinalityStep:
    """Estimated shape of the stream after the step node ``op``."""

    op: object
    rows_in: float
    rows_out: float
    schema_out: Schema


def estimate_chain(chain: Sequence, schema: Schema, num_rows: int,
                   stats: PlanStats) -> list[CardinalityStep]:
    """Propagate row-count and schema estimates through ``chain``, the
    step nodes of :func:`repro.core.pipeline_compiler.operator_chain`; the
    returned steps line up with it one to one.
    """
    steps: list[CardinalityStep] = []
    rows = float(num_rows)
    current = schema
    for op in chain:
        rows_in, kernel = rows, op.kernel
        if kernel == "selection":
            rows = rows * stats.selectivity
        elif kernel == "regex":
            rows = rows * stats.regex_selectivity
        elif kernel == "join":
            current = join_output_schema(current, op.build.schema,
                                         list(op.payload))
            rows = rows * stats.join_match_ratio
        elif kernel == "eval":
            # Over the *current* schema: after a join the select list
            # may name appended payload columns.
            current = items_schema(op.items, current)
        elif kernel == "distinct":
            rows = min(rows, max(1.0, rows * stats.distinct_ratio))
        elif kernel == "aggregate":
            current = grouped_schema(current, op.group_by, op.aggregates)
            rows = (min(rows, float(stats.groups)) if op.group_by
                    else 1.0)
        # A decrypt keeps rows and schema unchanged.
        steps.append(CardinalityStep(op, rows_in, rows, current))
    return steps


def kernel_cost(op, rows_in: float, schema: Schema, cpu: CpuCostModel,
                growing: bool) -> list[tuple[str, float]]:
    """The client's CPU charges, ``(breakdown name, ns)``, for running the
    unary step node ``op`` over ``rows_in`` rows of ``schema``.

    The one price of a client step: the executor's bill
    (:func:`~repro.core.planner.run_client_kernel`, ``growing`` read off
    the kernel's hash map) and the planner's estimate
    (:meth:`PlacementCostModel.client_ops_ns`, ``growing`` guessed from
    the estimated output) both charge it.
    """
    n, kernel = int(rows_in), op.kernel
    if kernel == "regex":
        width = schema.column(op.match.column.name).width
        return [("re2", cpu.regex_ns(int(rows_in * width)))]
    if kernel == "selection":
        return [("predicate", cpu.select_ns(n))]
    if kernel == "eval":
        return [("project", cpu.select_ns(n))]
    if kernel == "distinct":
        return [("hash", cpu.hash_ns(n, growing=growing))]
    if kernel == "aggregate":
        hashed = ([("hash", cpu.hash_ns(n, growing=growing))]
                  if op.group_by else [])
        return hashed + [("aggregate", cpu.aggregate_update_ns(n))]
    if kernel == "sort":
        return [("sort", cpu.sort_ns(n))]
    return []                   # limit: a slice, no per-tuple work


def join_cost(build_rows: int, probe_rows: int,
              cpu: CpuCostModel) -> list[tuple[str, float]]:
    """The client join's CPU charges: hash the build side (growing past
    :data:`HASHMAP_GROWTH_THRESHOLD` rows), then probe once per row."""
    growing = build_rows > HASHMAP_GROWTH_THRESHOLD
    return [("hash", cpu.hash_ns(build_rows, growing=growing)),
            ("hash", cpu.hash_ns(probe_rows, growing=False))]


def delta_merge_cost_ns(cpu: CpuCostModel, base_rows: float,
                        delta_rows: float) -> float:
    """Client-side software cost of merging a version chain.

    Shipping a table with deltas raw means shipping base + delta segments
    and reconstructing the visible rows on the compute node: build a
    row-id hash over the delta rows, then probe it once per base row.
    Priced with the same LCPU terms as the other software kernels, and
    charged identically by the planner (estimate) and the ship execution
    path (actual), so explain accuracy is preserved.
    """
    if delta_rows <= 0:
        return 0.0
    growing = delta_rows > HASHMAP_GROWTH_THRESHOLD
    return (cpu.hash_ns(int(delta_rows), growing=growing)
            + cpu.select_ns(int(base_rows)))


def view_circuit_cost_ns(cpu: CpuCostModel, delta_rows: float,
                         depth: int) -> float:
    """Client-side software cost of one circuit step over a delta batch.

    Each of the circuit's ``depth`` stages touches every delta row once:
    a hash-map update against the stage's keyed state (Z-set weights,
    distinct multiplicities, group members, join indexes) plus the
    per-tuple accumulator arithmetic.  Priced with the same LCPU terms
    as the other software kernels so the incremental-vs-rescan crossover
    in fig20 compares like against like.  Charged identically by the
    estimate (:meth:`PlacementCostModel.view_refresh_ns`) and by the
    refresh execution path in :mod:`repro.core.api`.
    """
    if delta_rows <= 0:
        return 0.0
    rows = int(delta_rows)
    growing = rows > HASHMAP_GROWTH_THRESHOLD
    per_stage = (cpu.hash_ns(rows, growing=growing)
                 + cpu.aggregate_update_ns(rows))
    return cpu.setup_ns() + max(1, int(depth)) * per_stage


class PlacementCostModel:
    """Prices offloaded fragments and client-side remainders, ns."""

    def __init__(self, config: FarviewConfig,
                 cpu: CpuCostModel | None = None):
        self.config = config
        self.cpu = cpu if cpu is not None else CpuCostModel()

    # -- shared network terms ----------------------------------------------
    @property
    def _wire_rate(self) -> float:
        """Result/raw-byte goodput of the FV link, bytes/ns."""
        return self.config.network.goodput

    def _request_ns(self) -> float:
        """Round-trip fixed cost of one FV verb: request packet out,
        FPGA request engine, first/last response latency."""
        return (2 * self.config.network.one_way_latency_ns
                + self.config.network.request_overhead_ns)

    # -- offload side ------------------------------------------------------
    def region_setup_ns(self, cold: bool) -> float:
        """Partial-reconfiguration charge when the region holds a
        different pipeline (§3.2: ms-scale, scaled by region size via the
        config's ``reconfiguration_ns``)."""
        return self.config.operator_stack.reconfiguration_ns if cold else 0.0

    def offload_ns(self, *, bytes_in: float, bytes_out: float,
                   ingest_rate: float, fill_cycles: int,
                   flush_groups: float = 0.0, cold: bool = False,
                   shards: int = 1, build_bytes: float = 0.0) -> float:
        """Farview pipeline cost for one offloaded fragment.

        Ingest and egress are deeply pipelined (§4.1), so the streaming
        phase is the *max* of the two, not the sum.  With ``shards`` > 1
        the table streams from independent nodes in parallel and the
        gather completes with the last shard, so per-shard bytes bound
        the streaming phase (the caller passes pool-level ``bytes_in`` /
        ``bytes_out``).

        ``build_bytes`` is a join's build-side ingest: the dimension
        table is read from node DRAM into the on-chip hash *before* the
        probe stream starts (§7), so it adds serially at aggregate
        memory bandwidth — the "build-ingest + BRAM fill" charge the
        offload side pays while the ship side pays build-hash + probe
        CPU cost instead.
        """
        stack = self.config.operator_stack
        per_shard_in = bytes_in / max(1, shards)
        per_shard_out = bytes_out / max(1, shards)
        stream = max(per_shard_in / ingest_rate,
                     per_shard_out / self._wire_rate)
        flush = (flush_groups * cal.GROUPBY_FLUSH_CYCLES_PER_GROUP
                 * stack.cycle_ns)
        build_fill = build_bytes / self.config.memory.aggregate_bandwidth
        return (self.region_setup_ns(cold) + self._request_ns()
                + fill_cycles * stack.cycle_ns + build_fill + stream + flush)

    # -- distributed join build movement -----------------------------------
    def join_movement_ns(self, strategy: str, build_bytes: float,
                         num_nodes: int, copies: int = 1) -> float:
        """One-time cost of placing a join's build side for ``strategy``.

        ``colocated`` moves nothing — the build shards already sit where
        the matching fact shards are.  ``broadcast`` gathers the build
        once and writes one *full* copy onto every node over independent
        links in parallel (the per-node write bounds the phase).
        ``shuffle`` gathers the build once, re-keys it with the same
        splitmix64 hash the fact placement used, and writes one
        ``build/num_nodes`` fragment per node — but each node receives
        ``copies`` fragment writes (its own partition plus the failover
        copies ring-placed onto it) *serialized on its link*, so with
        k-replication the fixed per-write cost is paid ``copies`` times.
        That is the honest crossover: broadcast wins small builds (one
        fixed cost), shuffle wins large ones (``copies/num_nodes`` of
        the bytes per link instead of all of them).

        Both broadcast and shuffle placements are cached per build (and
        per fact pairing) by the router, so the caller charges this only
        when the placement is cold.
        """
        if strategy == "colocated":
            return 0.0
        read = self.ship_bytes_ns(build_bytes)
        if strategy == "broadcast":
            return read + self._request_ns() + build_bytes / self._wire_rate
        if strategy == "shuffle":
            fragment = build_bytes / max(1, num_nodes)
            per_node = copies * (self._request_ns()
                                 + fragment / self._wire_rate)
            return read + per_node
        raise QueryError(f"unknown join strategy {strategy!r}")

    # -- ship side ---------------------------------------------------------
    def ship_bytes_ns(self, nbytes: float, shards: int = 1) -> float:
        """Raw RDMA READ of ``nbytes`` into the client buffer.

        Bounded by the slower of wire goodput and the node's aggregate
        DRAM bandwidth; sharded tables stream shards in parallel over
        independent links.
        """
        rate = min(self._wire_rate, self.config.memory.aggregate_bandwidth)
        return self._request_ns() + (nbytes / max(1, shards)) / rate

    # -- incremental view maintenance ---------------------------------------
    def view_refresh_ns(self, delta_bytes: float, delta_rows: float,
                        depth: int = 1) -> float:
        """Price one incremental view refresh: read the committed delta
        segments over the wire, then run the circuit step in client
        software."""
        return (self.ship_bytes_ns(delta_bytes)
                + view_circuit_cost_ns(self.cpu, delta_rows, depth))

    def view_rescan_ns(self, chain_bytes: float, base_rows: float,
                       delta_rows: float, depth: int = 1) -> float:
        """Price recomputing the same view from scratch: ship the whole
        visible chain (base + deltas), software-merge the versions, and
        run every row through the circuit once.  A ship-side-style bound,
        deliberately comparable term by term with
        :meth:`view_refresh_ns` — the two cross where delta bytes
        approach chain bytes, the fig20 crossover."""
        merge = delta_merge_cost_ns(self.cpu, base_rows, delta_rows)
        return (self.ship_bytes_ns(chain_bytes) + merge
                + view_circuit_cost_ns(self.cpu, base_rows + delta_rows,
                                       depth))

    def client_ops_ns(self, steps: Sequence[CardinalityStep],
                      schema_in: Schema, bytes_in: float) -> float:
        """Software execution of the remainder ``steps`` on the client.

        LCPU-style accounting: one cold DRAM scan of the shipped bytes,
        each step's node priced by :func:`kernel_cost` at its estimated
        rows (a decrypt by AES over the shipped bytes), one
        materializing write of the final result (intermediate operators
        stream through cache).
        """
        cpu = self.cpu
        total = cpu.setup_ns() + cpu.read_ns(int(bytes_in))
        current = schema_in
        for step in steps:
            op = step.op
            if op.kernel == "decrypt":
                charges = [("aes", cpu.aes_ns(int(bytes_in)))]
            elif op.kernel == "join":
                # The client must fetch the build table itself (a second
                # raw read over the same link) before it builds and probes.
                build = op.build
                total += self.ship_bytes_ns(float(build.size_bytes))
                total += cpu.read_ns(build.size_bytes)
                charges = join_cost(build.num_rows, int(step.rows_in), cpu)
            else:
                charges = kernel_cost(
                    op, step.rows_in, current, cpu,
                    growing=step.rows_out > HASHMAP_GROWTH_THRESHOLD)
            for _name, ns in charges:
                total += ns
            current = step.schema_out
        if steps:
            out_bytes = steps[-1].rows_out * steps[-1].schema_out.row_width
        else:
            out_bytes = bytes_in
        total += cpu.write_ns(int(out_bytes))
        return total
