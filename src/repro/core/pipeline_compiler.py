"""Query -> operator-pipeline compilation and offload planning.

This is the piece the paper leaves to "the query compiler in Farview"
(§4.2, future work): it maps a :class:`~repro.core.query.Query` onto the
operator blocks of §5 and decides execution strategy:

* operator ordering: :func:`operator_chain` states it once, as the
  ``Bound*`` step nodes of :mod:`repro.core.compile` (decrypt -> regex ->
  selection -> join -> projection -> distinct | group-by | aggregation
  -> encrypt), each hint riding the node it serves; :func:`compile_chain`
  walks any slice of it, each node giving its operator and its shape in
  the region signature, then adds packing;
* *smart addressing vs standard projection* (§5.2): chosen by a simple
  cost model over the memory timing constants, reproducing the Figure 7
  crossover (narrow tuples scan sequentially, wide tuples fetch columns);
* *vectorization* (§5.3): lane count derived from memory channels and
  tuple width.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..common import calibration as cal
from ..common.config import FarviewConfig
from ..common.errors import (JoinBuildOverflowError, PipelineCompilationError,
                             QueryError)
from ..common.expr import Col, render_expr
from ..common.records import Schema
from ..operators.aggregate import StandaloneAggregateOperator
from ..operators.base import ByteOperator, OperatorPipeline, RowOperator
from ..operators.distinct import DistinctOperator
from ..operators.encryption_op import DecryptOperator, EncryptOperator
from ..operators.groupby import GroupByOperator
from ..operators.join import SmallTableJoinOperator
from ..operators.projection import ProjectionOperator, SmartAddressingPlan
from ..operators.regex_op import RegexMatchOperator
from ..operators.selection import SelectionOperator, VectorizedSelectionOperator
from .compile import (BoundAggregate, BoundArm, BoundDistinct, BoundEval,
                      BoundFilter, BoundRegex)
from .query import Query
from .table import FTable, as_table
from .versioning import VersionView


@dataclass(frozen=True)
class BoundDecrypt:
    """Decrypt the scanned table: the node's first operator, or the ship
    read as the ciphertext lands — never a client step."""

    kernel = "decrypt"


@dataclass(frozen=True)
class BoundEncrypt:
    """Encrypt the packed output: the node's last operator, no client's."""

    key: bytes
    nonce: bytes
    kernel = "encrypt"


def join_arm(join) -> BoundArm:
    """A Query's ``JoinSpec`` as its chain's raw-read join arm."""
    return BoundArm(join.build_table, join.build_table.name, None,
                    join.build_key, join.probe_key, join.payload)


def operator_chain(query: Query) -> list:
    """The query's operators in pipeline order, as the step nodes
    :func:`~repro.core.planner.run_client_kernel` runs (a ``join`` is a
    raw-read :class:`~repro.core.compile.BoundArm` over its build).  The
    filter carries ``vectorized`` and the projection the smart-addressing
    hint: a slice of the chain is a whole fragment."""
    chain: list = []
    if query.decrypt_input:
        chain.append(BoundDecrypt())
    if query.regex is not None:
        chain.append(BoundRegex(query.regex))
    if query.predicate is not None:
        chain.append(BoundFilter(query.predicate, query.vectorized))
    if query.join is not None:
        chain.append(join_arm(query.join))
    if query.projection is not None:
        chain.append(BoundEval(tuple((Col(c), c) for c in query.projection),
                               query.smart_addressing))
    if query.distinct:
        chain.append(BoundDistinct(query.distinct_columns))
    elif query.group_by or query.aggregates:
        chain.append(BoundAggregate(query.group_by or (), query.aggregates))
    if query.encrypt_output is not None:
        chain.append(BoundEncrypt(*query.encrypt_output))
    return chain


def lower_query(query: Query, schema: Schema) -> list:
    """Validate ``query`` against ``schema`` (a :class:`QueryError`
    whatever the verb) and return its chain."""
    query.validate(schema)
    return operator_chain(query)


def over_deltas(chain: list) -> list:
    """``chain`` for a scan over deltas: the delta-merge ingest consumes
    the full row stream (like a join), so no smart addressing."""
    if any(op.kernel == "eval" and op.smart for op in chain):
        raise QueryError(
            "smart addressing is incompatible with a scan over deltas: the "
            "delta-merge ingest consumes the full row stream; compact the "
            "table first")
    return [replace(op, smart=False) if op.kernel == "eval" else op
            for op in chain]


@dataclass
class CompiledQuery:
    """Everything the node needs to execute one query."""

    pipeline: OperatorPipeline
    signature: str                       # region identity: shapes + hints
    resource_operators: list[str]        # names for the resource model
    ingest_mode: str                     # "standard" | "vectorized" | "smart"
    ingest_rate: float                   # bytes/ns into the pipeline
    sa_plan: Optional[SmartAddressingPlan] = None
    join_op: Optional[SmallTableJoinOperator] = None
    #: The build side's snapshot (resolved at compile time, pinned by the
    #: client verb) whose visible rows load into the on-chip hash.
    join_build: Optional[VersionView] = None

    @property
    def output_schema(self) -> Schema:
        return self.pipeline.output_schema


def _standard_cost_per_tuple(row_width: int, config: FarviewConfig) -> float:
    """Sequential-scan cost of one tuple, ns.

    The standard path streams whole tuples through the dynamic region, so
    it is bound by the slower of the region datapath and the aggregate
    memory bandwidth.
    """
    rate = min(config.operator_stack.region_throughput,
               config.memory.aggregate_bandwidth)
    return row_width / rate


def _sa_cost_per_tuple(plan: SmartAddressingPlan, config: FarviewConfig) -> float:
    """Scattered-fetch cost of one tuple, ns: each coalesced column run is
    a discrete DRAM request paying a stripe-unit read plus activate/
    precharge overhead, spread over the channels."""
    mem = config.memory
    stripe_time = mem.stripe_unit / mem.effective_channel_bandwidth
    per_request = stripe_time + cal.SA_REQUEST_OVERHEAD_NS
    return plan.requests_per_tuple * per_request / mem.channels


def choose_smart_addressing(chain: list, schema: Schema,
                            config: FarviewConfig) -> bool:
    """The Figure 7 planning rule.

    Honour the projection node's hint; otherwise compare the per-tuple
    cost of a sequential scan against scattered column fetches.  Only a
    lone projection (its output encrypted or not) is eligible: predicates
    and grouping need the full annotated stream in this prototype, as in
    the paper's experiments, and scattered CTR reads cannot be decrypted.
    """
    ops = [op for op in chain if op.kernel != "encrypt"]
    hint = next((op.smart for op in ops if op.kernel == "eval"), None)
    if hint is not None:
        return hint
    if [op.kernel for op in ops] != ["eval"]:
        return False
    plan = SmartAddressingPlan(schema, [name for _, name in ops[0].items])
    return _sa_cost_per_tuple(plan, config) < _standard_cost_per_tuple(
        schema.row_width, config)


def check_chain(chain: list, table: FTable) -> None:
    """Refuse what no placement can run, with one class and text on every
    route, the placements that compile nothing included: ``chain`` and
    ``table`` disagreeing on encryption (a :class:`QueryError`), or a
    forced smart-addressing hint the node cannot honour."""
    decrypt = chain[:1] == [BoundDecrypt()]
    if decrypt and not table.encrypted:
        raise QueryError(
            f"query asks to decrypt but table {table.name!r} is not "
            f"encrypted")
    if table.encrypted and not decrypt:
        raise QueryError(
            f"table {table.name!r} is encrypted; the query must set "
            f"decrypt_input (no placement can parse ciphertext)")
    if not any(op.kernel == "eval" and op.smart for op in chain):
        return
    kernels = [op.kernel for op in chain[decrypt:] if op.kernel != "encrypt"]
    if kernels != ["eval"]:
        raise PipelineCompilationError(
            "smart addressing supports projection-only queries")
    if table.encrypted:
        raise PipelineCompilationError(
            "smart addressing cannot decrypt scattered CTR reads in this "
            "prototype; use standard projection")


def compile_query(query: Query, table: FTable,
                  config: FarviewConfig) -> CompiledQuery:
    """Compile ``query`` against ``table``: the validated §4.2 entry,
    :func:`compile_chain` over its whole :func:`operator_chain`."""
    return compile_chain(lower_query(query, table.schema), table, config)


def compile_chain(chain: list, table: FTable,
                  config: FarviewConfig) -> CompiledQuery:
    """Compile ``chain`` — any slice of an :func:`operator_chain` —
    against ``table``: a hardware operator per node, and the region
    signature in the same walk."""
    schema = table.schema
    check_chain(chain, table)
    use_sa = choose_smart_addressing(chain, schema, config)

    stack = config.operator_stack
    cuckoo = dict(ways=stack.cuckoo_tables, slots_per_way=stack.cuckoo_slots,
                  max_kicks=stack.cuckoo_max_kicks)
    pre_ops: list[ByteOperator] = []
    row_ops: list[RowOperator] = []
    post_ops: list[ByteOperator] = []
    resource_ops: list[str] = []
    parts: list[str] = []
    input_schema, lanes, sa_plan, join_op, join_build = (schema, 1, None,
                                                         None, None)
    vectorized = False
    for op in chain:
        kernel = op.kernel
        if kernel == "decrypt":
            assert table.key is not None and table.nonce is not None
            pre_ops.append(DecryptOperator(table.key, table.nonce))
            resource, shape = "decryption", "dec"
        elif kernel == "regex":
            column, pattern = op.match.column.name, op.match.engine_pattern
            row_ops.append(RegexMatchOperator(column, pattern))
            resource, shape = "regex", f"regex[{column}:{pattern}]"
        elif kernel == "selection":
            vectorized = op.vectorized
            if vectorized:
                selection = VectorizedSelectionOperator.for_configuration(
                    op.predicate, memory_channels=config.memory.channels,
                    tuple_width=schema.row_width,
                    datapath_bytes=stack.datapath_bytes)
                lanes = selection.lanes
            else:
                selection = SelectionOperator(op.predicate)
            row_ops.append(selection)
            resource, shape = "selection", f"sel[{render_expr(op.predicate)}]"
        elif kernel == "join":
            # One shard: its chain's snapshot now, the epoch the client
            # verb pins; the scatter router swaps a sharded build for a
            # node-local copy before this pipeline loads it.
            build = as_table(op.build)
            if len(build.shards) == 1:
                versions = build.shards[0].chain
                join_build = versions.view_at(versions.epoch)
            capacity = stack.cuckoo_tables * stack.cuckoo_slots
            if build.num_rows > capacity:
                raise JoinBuildOverflowError(
                    f"build side of {build.num_rows} rows exceeds the "
                    f"on-chip hash capacity ({capacity} slots); run the "
                    f"join on the client instead")
            join_op = SmallTableJoinOperator(
                build.schema, op.build_key, op.probe_key, list(op.payload),
                **cuckoo)
            row_ops.append(join_op)
            resource = "join_small_table"
            shape = f"join[{op.table}.{op.build_key}={op.probe_key}]"
        elif kernel == "eval":
            columns = [name for _, name in op.items]
            if use_sa:
                sa_plan = SmartAddressingPlan(schema, columns)
                input_schema = sa_plan.out_schema
                resource = "smart_addressing"
            else:
                row_ops.append(ProjectionOperator(columns))
                resource = "projection"
            shape = f"proj[{','.join(columns)}]"
        elif kernel == "distinct":
            row_ops.append(DistinctOperator(
                list(op.columns) if op.columns else None, **cuckoo,
                lru_depth_per_way=stack.lru_depth_per_table))
            resource = "distinct"
            shape = f"distinct[{','.join(op.columns or ('*',))}]"
        elif kernel == "encrypt":
            post_ops.append(EncryptOperator(op.key, op.nonce))
            resource, shape = "encryption", "enc"
        else:
            aggs = ",".join(f"{s.func}({s.column})" for s in op.aggregates)
            if op.group_by:
                row_ops.append(GroupByOperator(
                    list(op.group_by), list(op.aggregates), **cuckoo,
                    lru_depth_per_way=stack.lru_depth_per_table))
                resource = "groupby"
                shape = f"groupby[{','.join(op.group_by)};{aggs}]"
            else:
                row_ops.append(StandaloneAggregateOperator(
                    list(op.aggregates)))
                resource, shape = "aggregation", f"agg[{aggs}]"
        resource_ops.append(resource)
        parts.append(shape)

    # Lanes widen the scan-side operators' ingest.
    if vectorized:
        parts.insert(sum(op.kernel in ("decrypt", "regex", "selection", "join")
                         for op in chain), "vec")
    resource_ops.extend(["packing", "sending"])
    signature = "|".join(parts) or "raw-read"
    # Smart-addressing timing is request-driven: its rate is the assembled
    # output's, for reporting only.
    bandwidth = config.memory.aggregate_bandwidth
    return CompiledQuery(
        pipeline=OperatorPipeline(signature, input_schema, row_ops=row_ops,
                                  pre_ops=pre_ops, post_ops=post_ops),
        signature=signature, resource_operators=resource_ops,
        ingest_mode=("smart" if use_sa else
                     "vectorized" if vectorized else "standard"),
        ingest_rate=(bandwidth if use_sa else
                     min(lanes * stack.region_throughput, bandwidth)),
        sa_plan=sa_plan, join_op=join_op, join_build=join_build)
