"""Farview core: node, cluster, client API, catalog, queries, compiler."""

from ..common.expr import like_to_regex
from .api import (
    ClusterClient,
    FarviewClient,
    QueryResult,
    canonical_result_bytes,
)
from .catalog import Catalog
from .cost_model import PlacementCostModel, PlanStats, estimate_chain
from .planner import (
    ExplainPlan,
    plan_placement,
)
from .cluster import (
    FarviewCluster,
    ScatterPlan,
    plan_scatter,
)
from .node import Connection, ExecutionReport, FarviewNode
from .elasticity import RegionLeaseManager
from .serving import FrontDoor, ScanShape, ServingRecord, TenantSession
from .partition import PartitionSpec, partition_indices, shard_assignment
from .pipeline_compiler import (
    CompiledQuery,
    choose_smart_addressing,
    compile_chain,
    compile_query,
    operator_chain,
)
from .query import (
    JoinSpec,
    Query,
    group_by_sum,
    select_distinct,
    select_star,
)
from .compile import (ParsedQuery, ParsedWrite, SqlSyntaxError, bind_select,
                      parse_sql)
from .table import FTable, Shard, Table
from .versioning import (
    DeltaSegment,
    VersionChain,
    VersionView,
    delta_schema,
    rows_from_literals,
)

__all__ = [
    "ClusterClient",
    "FarviewClient",
    "QueryResult",
    "canonical_result_bytes",
    "Catalog",
    "PlacementCostModel",
    "PlanStats",
    "estimate_chain",
    "ExplainPlan",
    "operator_chain",
    "plan_placement",
    "FarviewCluster",
    "ScatterPlan",
    "plan_scatter",
    "PartitionSpec",
    "partition_indices",
    "shard_assignment",
    "Connection",
    "ExecutionReport",
    "FarviewNode",
    "RegionLeaseManager",
    "FrontDoor",
    "ScanShape",
    "ServingRecord",
    "TenantSession",
    "CompiledQuery",
    "choose_smart_addressing",
    "compile_chain",
    "compile_query",
    "JoinSpec",
    "Query",
    "group_by_sum",
    "select_distinct",
    "select_star",
    "ParsedQuery",
    "ParsedWrite",
    "SqlSyntaxError",
    "bind_select",
    "like_to_regex",
    "parse_sql",
    "FTable",
    "Shard",
    "Table",
    "DeltaSegment",
    "VersionChain",
    "VersionView",
    "delta_schema",
    "rows_from_literals",
]
