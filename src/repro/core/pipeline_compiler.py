"""Query -> operator-pipeline compilation and offload planning.

This is the piece the paper leaves to "the query compiler in Farview"
(§4.2, future work): it maps a :class:`~repro.core.query.Query` onto the
operator blocks of §5 and decides execution strategy:

* operator ordering: decrypt -> regex -> selection -> join ->
  projection -> distinct | group-by | aggregation -> packing
  (+ encrypt);
* *smart addressing vs standard projection* (§5.2): chosen by a simple
  cost model over the memory timing constants, reproducing the Figure 7
  crossover (narrow tuples scan sequentially, wide tuples fetch columns);
* *vectorization* (§5.3): lane count derived from memory channels and
  tuple width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common import calibration as cal
from ..common.config import FarviewConfig
from ..common.errors import (JoinBuildOverflowError, PipelineCompilationError,
                             QueryError)
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
from .query import Query
from .table import FTable, as_table
from .versioning import VersionView


@dataclass
class CompiledQuery:
    """Everything the node needs to execute one query."""

    query: Query
    pipeline: OperatorPipeline
    signature: str                       # bitstream identity for the region
    resource_operators: list[str]        # names for the resource model
    ingest_mode: str                     # "standard" | "vectorized" | "smart"
    ingest_rate: float                   # bytes/ns into the pipeline
    sa_plan: Optional[SmartAddressingPlan] = None
    lanes: int = 1
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


def choose_smart_addressing(query: Query, schema: Schema,
                            config: FarviewConfig) -> bool:
    """The Figure 7 planning rule.

    Honour an explicit request; otherwise compare the per-tuple cost of a
    sequential scan against scattered column fetches.  Only projection-only
    queries are eligible (predicates/grouping need the full annotated
    stream in this prototype, as in the paper's experiments), and never a
    decrypting one (scattered CTR reads cannot be decrypted).
    """
    if query.smart_addressing is not None:
        return query.smart_addressing
    if not query.is_projection_only or query.decrypt_input:
        return False
    plan = SmartAddressingPlan(schema, list(query.projection or ()))
    return _sa_cost_per_tuple(plan, config) < _standard_cost_per_tuple(
        schema.row_width, config)


def compile_query(query: Query, table: FTable,
                  config: FarviewConfig) -> CompiledQuery:
    """Compile ``query`` against ``table`` into a deployable pipeline."""
    schema = table.schema
    try:
        query.validate(schema)
    except QueryError as exc:
        raise PipelineCompilationError(str(exc)) from exc

    if query.decrypt_input and not table.encrypted:
        raise PipelineCompilationError(
            f"query asks to decrypt but table {table.name!r} is not "
            f"encrypted")
    if table.encrypted and not query.decrypt_input:
        raise PipelineCompilationError(
            f"table {table.name!r} is encrypted; the query must set "
            f"decrypt_input (the operators cannot parse ciphertext)")

    use_sa = choose_smart_addressing(query, schema, config)
    if use_sa and not query.is_projection_only:
        raise PipelineCompilationError(
            "smart addressing supports projection-only queries")
    if use_sa and table.encrypted:
        raise PipelineCompilationError(
            "smart addressing cannot decrypt scattered CTR reads in this "
            "prototype; use standard projection")

    pre_ops: list[ByteOperator] = []
    post_ops: list[ByteOperator] = []
    row_ops: list[RowOperator] = []
    resource_ops: list[str] = []

    if query.decrypt_input:
        assert table.key is not None and table.nonce is not None
        pre_ops.append(DecryptOperator(table.key, table.nonce))
        resource_ops.append("decryption")

    lanes = 1
    if query.regex is not None:
        row_ops.append(RegexMatchOperator(query.regex.column.name,
                                          query.regex.engine_pattern))
        resource_ops.append("regex")
    if query.predicate is not None:
        if query.vectorized:
            op = VectorizedSelectionOperator.for_configuration(
                query.predicate,
                memory_channels=config.memory.channels,
                tuple_width=schema.row_width,
                datapath_bytes=config.operator_stack.datapath_bytes)
            lanes = op.lanes
            row_ops.append(op)
        else:
            row_ops.append(SelectionOperator(query.predicate))
        resource_ops.append("selection")

    stack = config.operator_stack
    join_op: Optional[SmallTableJoinOperator] = None
    join_build: Optional[VersionView] = None
    if query.join is not None:
        build = as_table(query.join.build_table)
        build_rows = build.num_rows
        if len(build.shards) == 1:
            # Snapshot the chain at the current epoch; the client verb
            # pins that epoch around the execution so concurrent dim
            # writes/compactions cannot leak into this join.
            chain = build.shards[0].chain
            join_build = chain.view_at(chain.epoch)
        # else: a build spread over several shards is capacity-checkable
        # here, but the scatter router must swap in a node-local copy
        # before this pipeline can actually load it.
        if build_rows > stack.cuckoo_tables * stack.cuckoo_slots:
            raise JoinBuildOverflowError(
                f"build side of {build_rows} rows exceeds the on-chip "
                f"hash capacity ({stack.cuckoo_tables * stack.cuckoo_slots}"
                f" slots); run the join on the client instead")
        join_op = SmallTableJoinOperator(
            build.schema, query.join.build_key, query.join.probe_key,
            list(query.join.payload),
            ways=stack.cuckoo_tables, slots_per_way=stack.cuckoo_slots,
            max_kicks=stack.cuckoo_max_kicks)
        row_ops.append(join_op)
        resource_ops.append("join_small_table")

    sa_plan: Optional[SmartAddressingPlan] = None
    if use_sa:
        sa_plan = SmartAddressingPlan(schema, list(query.projection or ()))
        resource_ops.append("smart_addressing")
        input_schema = sa_plan.out_schema
    else:
        input_schema = schema
        if query.projection is not None:
            row_ops.append(ProjectionOperator(list(query.projection)))
            resource_ops.append("projection")
    if query.distinct:
        row_ops.append(DistinctOperator(
            list(query.distinct_columns) if query.distinct_columns else None,
            ways=stack.cuckoo_tables, slots_per_way=stack.cuckoo_slots,
            max_kicks=stack.cuckoo_max_kicks,
            lru_depth_per_way=stack.lru_depth_per_table))
        resource_ops.append("distinct")
    elif query.group_by:
        row_ops.append(GroupByOperator(
            list(query.group_by), list(query.aggregates),
            ways=stack.cuckoo_tables, slots_per_way=stack.cuckoo_slots,
            max_kicks=stack.cuckoo_max_kicks,
            lru_depth_per_way=stack.lru_depth_per_table))
        resource_ops.append("groupby")
    elif query.aggregates:
        row_ops.append(StandaloneAggregateOperator(list(query.aggregates)))
        resource_ops.append("aggregation")

    if query.encrypt_output is not None:
        key, nonce = query.encrypt_output
        post_ops.append(EncryptOperator(key, nonce))
        resource_ops.append("encryption")

    resource_ops.extend(["packing", "sending"])

    pipeline = OperatorPipeline(query.signature, input_schema,
                                row_ops=row_ops, pre_ops=pre_ops,
                                post_ops=post_ops)

    if use_sa:
        ingest_mode = "smart"
        # SA timing is request-driven; the rate field carries the effective
        # assembled-output rate for reporting only.
        ingest_rate = config.memory.aggregate_bandwidth
    elif query.vectorized:
        ingest_mode = "vectorized"
        ingest_rate = min(lanes * stack.region_throughput,
                          config.memory.aggregate_bandwidth)
    else:
        ingest_mode = "standard"
        ingest_rate = min(stack.region_throughput,
                          config.memory.aggregate_bandwidth)

    return CompiledQuery(query=query, pipeline=pipeline,
                         signature=query.signature,
                         resource_operators=resource_ops,
                         ingest_mode=ingest_mode, ingest_rate=ingest_rate,
                         sa_plan=sa_plan, lanes=lanes,
                         join_op=join_op, join_build=join_build)
