"""Error-taxonomy coverage: every error is typed, public, and catchable.

Two guarantees, each enforced structurally so new code cannot rot them:

1. **Reachability** — every concrete :class:`FarviewError` subclass can
   be provoked through a *public* API path (the trigger table below);
   a completeness check walks the live exception hierarchy and fails
   when a new subclass appears without a trigger (or an explicit
   internal-only exemption).
2. **Base-class sufficiency** — for every client verb (the verb table,
   mirroring ``core/api.py``'s surface), an injected node crash
   surfaces as a :class:`FaultError` that a plain
   ``except FarviewError`` catches: callers never need to enumerate
   failure types to survive chaos, and no verb leaks an untyped error.
"""

import numpy as np
import pytest

import repro.common.errors as errors_module
from repro.common.config import (FarviewConfig, MemoryConfig,
                                 OperatorStackConfig)
from repro.common.errors import (CatalogError, ConfigurationError,
                                 ConnectionError_, DegradedResultError,
                                 FarviewError, FaultError,
                                 JoinBuildOverflowError, NodeFailedError,
                                 OutOfMemoryError, PipelineCompilationError,
                                 ProtectionFault, QueryError,
                                 RegexSyntaxError, RegionFailedError,
                                 RegionUnavailableError, RequestTimeoutError,
                                 TranslationFault)
from repro.core.api import ClusterClient, FarviewClient
from repro.core.cluster import FarviewCluster
from repro.core.faults import FaultInjector, RetryPolicy
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.query import JoinSpec, Query, select_star
from repro.core.compile import SqlSyntaxError
from repro.core.table import FTable
from repro.core.versioning import ROWID_COLUMN
from repro.operators.selection import Compare
from repro.sim.engine import SimulationError, Simulator
from repro.workloads.generator import (make_rows, selection_workload,
                                       string_workload)

KB = 1024
MB = 1024 * KB

TEST_CONFIG = FarviewConfig(memory=MemoryConfig(
    channels=2, channel_capacity=8 * MB, page_size=64 * KB))


def make_client(config=TEST_CONFIG):
    sim = Simulator()
    client = FarviewClient(FarviewNode(sim, config))
    client.open_connection()
    return client


def make_loaded_client(num_rows=256):
    client = make_client()
    wl = selection_workload(num_rows, 0.5, seed=2)
    table = FTable("T", wl.schema, num_rows)
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    return client, table, wl


# ---------------------------------------------------------------------------
# Reachability: one public-API trigger per concrete error class
# ---------------------------------------------------------------------------

def trigger_configuration_error():
    MemoryConfig(channels=0)


def trigger_out_of_memory():
    client = make_client()
    schema = selection_workload(8, 0.5).schema
    huge = FTable("huge", schema, (64 * MB) // schema.row_width)
    client.alloc_table_mem(huge)


def trigger_translation_fault():
    # The table's owning domain dies with its connection; the stale
    # handle no longer translates through the new domain.
    client, table, _wl = make_loaded_client()
    client.close_connection()
    client.open_connection()
    client.table_read(table)


def trigger_protection_fault():
    # §4.4 isolation: another connection's domain cannot reach the table.
    client, table, _wl = make_loaded_client()
    intruder = FarviewClient(client.node)
    intruder.open_connection()
    intruder.table_read(table)


def trigger_connection_error():
    client = make_client()
    client.open_connection()


def trigger_region_unavailable():
    config = FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=8 * MB,
                            page_size=64 * KB),
        operator_stack=OperatorStackConfig(regions=1))
    sim = Simulator()
    node = FarviewNode(sim, config)
    FarviewClient(node).open_connection()
    FarviewClient(node).open_connection()


def trigger_pipeline_compilation_error():
    # A query the node cannot compile: smart addressing forced on a
    # query that filters.  (An unknown column is a QueryError.)
    client, table, _wl = make_loaded_client()
    client.far_view(table, Query(predicate=Compare("a", "<", 1),
                                 projection=("a",), smart_addressing=True))


def trigger_join_build_overflow():
    # Shrink the on-chip cuckoo hash so a modest build side overflows it.
    config = FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=8 * MB,
                            page_size=64 * KB),
        operator_stack=OperatorStackConfig(cuckoo_tables=1, cuckoo_slots=8))
    sim = Simulator()
    client = FarviewClient(FarviewNode(sim, config))
    client.open_connection()
    wl = selection_workload(64, 0.5, seed=3)
    table = FTable("T", wl.schema, 64)
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    big = FTable("big", wl.schema, 64)
    client.alloc_table_mem(big)
    client.table_write(big, wl.rows)
    client.far_view(table, Query(join=JoinSpec(big, "a", "a", ("b",)),
                                 label="overflow"))


def trigger_regex_syntax_error():
    client = make_client()
    schema, rows = string_workload(16, 32, seed=4)
    table = FTable("S", schema, 16)
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    client.regex_match(table, schema.names[-1], "(unbalanced")


def trigger_catalog_error():
    client = make_client()
    schema = selection_workload(8, 0.5).schema
    rows = make_rows(schema, 8, seed=5)
    client.create_versioned_table("dup", schema, rows)
    client.create_versioned_table("dup", schema, rows)


def trigger_query_error():
    client, table, wl = make_loaded_client()
    client.table_write(table, wl.rows[: len(wl.rows) // 2])


def trigger_sql_syntax_error():
    make_client().sql("SELEC * FROM nowhere")


def trigger_simulation_error():
    Simulator().timeout(-1.0)


def trigger_node_failed():
    client, table, wl = make_loaded_client()
    FaultInjector(client.node).crash(0)
    client.far_view(table, select_star(wl.predicate))


def trigger_request_timeout():
    client, table, wl = make_loaded_client(num_rows=2048)
    client.retry_policy = RetryPolicy(max_attempts=1, deadline_ns=1.0)
    client.far_view(table, select_star(wl.predicate))


def trigger_region_failed():
    client, table, wl = make_loaded_client()
    FaultInjector(client.node).fail_region(0, 0)
    client.far_view(table, select_star(wl.predicate))


def trigger_degraded_result():
    sim = Simulator()
    cluster = FarviewCluster(sim, 2, TEST_CONFIG)
    cc = ClusterClient(cluster)
    cc.open_connection()
    wl = selection_workload(256, 0.5, seed=6)
    sharded = cc.create_table("T", wl.schema, wl.rows,
                              PartitionSpec(replicas=1))
    cc.allow_degraded = True
    FaultInjector(cluster).crash(1)
    cc.far_view(sharded, select_star(wl.predicate))


@pytest.mark.parametrize("num_nodes", [1, 2])
def test_mistyped_insert_is_a_query_error_before_anything_is_taken(num_nodes):
    """Failing-first: rows of another schema used to surface numpy's bare
    ``TypeError`` from inside the prepare.  It is a ``QueryError`` now,
    raised before a row id is reserved or a segment allocated — one node
    or a pool."""
    sim = Simulator()
    if num_nodes == 1:
        client = FarviewClient(FarviewNode(sim, TEST_CONFIG))
    else:
        client = ClusterClient(FarviewCluster(sim, num_nodes, TEST_CONFIG))
    client.open_connection()
    nodes = [client.node_client(i).node for i in range(num_nodes)]
    wl = selection_workload(64, 0.5, seed=11)
    vt = client.create_versioned_table("v", wl.schema, wl.rows)
    _schema, strings = string_workload(4, 32, seed=12)
    free0 = [n.mmu.allocator.free_pages for n in nodes]
    with pytest.raises(QueryError, match="schema"):
        client.insert(vt, strings)
    assert [n.mmu.allocator.free_pages for n in nodes] == free0
    assert (vt.epoch, vt.num_deltas, vt.num_rows) == (0, 0, 64)
    # No row id was burnt: the next insert takes the ids right after the
    # base segment's.
    client.insert(vt, wl.rows[:2])
    last = vt.shards[-1]
    delta = last.chain.deltas[-1].table
    image, _ = client.node_client(last.node_index).table_read(delta)
    ids = delta.schema.from_bytes(image)[ROWID_COLUMN]
    assert int(ids.max()) == last.chain.base.num_rows + 1


TRIGGERS = {
    ConfigurationError: trigger_configuration_error,
    OutOfMemoryError: trigger_out_of_memory,
    TranslationFault: trigger_translation_fault,
    ProtectionFault: trigger_protection_fault,
    ConnectionError_: trigger_connection_error,
    RegionUnavailableError: trigger_region_unavailable,
    PipelineCompilationError: trigger_pipeline_compilation_error,
    JoinBuildOverflowError: trigger_join_build_overflow,
    RegexSyntaxError: trigger_regex_syntax_error,
    CatalogError: trigger_catalog_error,
    QueryError: trigger_query_error,
    SqlSyntaxError: trigger_sql_syntax_error,
    SimulationError: trigger_simulation_error,
    NodeFailedError: trigger_node_failed,
    RequestTimeoutError: trigger_request_timeout,
    RegionFailedError: trigger_region_failed,
    DegradedResultError: trigger_degraded_result,
}

#: Subclasses that exist as catch-all bases or internal-consistency
#: guards and are deliberately not provoked through the public API.
EXEMPT = {
    "MemoryError_",        # base bucket for the memory stack
    "NetworkError",        # base bucket for the network stack
    "OperatorError",       # base bucket for the operator stack
    "FaultError",          # base bucket for injected failures
    "FlowControlError",    # credit-accounting guard: simulator-bug only
}


@pytest.mark.parametrize(
    "error_class", list(TRIGGERS), ids=lambda c: c.__name__)
def test_every_error_class_raisable_from_public_api(error_class):
    with pytest.raises(error_class) as excinfo:
        TRIGGERS[error_class]()
    # The whole taxonomy hangs off FarviewError: one catch suffices.
    assert isinstance(excinfo.value, FarviewError)


def test_taxonomy_is_fully_covered():
    """A new FarviewError subclass must gain a trigger (or an explicit
    exemption) — the taxonomy may not grow silently untested."""

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    covered = {cls.__name__ for cls in TRIGGERS} | EXEMPT
    missing = sorted(sub.__name__ for sub in walk(FarviewError)
                     if sub.__name__ not in covered)
    assert not missing, f"FarviewError subclasses without a trigger: {missing}"
    # And the errors module itself exports nothing outside the taxonomy.
    for name in dir(errors_module):
        obj = getattr(errors_module, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, FarviewError) or obj is FarviewError


# ---------------------------------------------------------------------------
# Base-class sufficiency per verb (the api.py verb table)
# ---------------------------------------------------------------------------

def _plain_setup():
    """A 2-node cluster with a plain replicated table + versioned table."""
    sim = Simulator()
    cluster = FarviewCluster(sim, 2, TEST_CONFIG)
    cc = ClusterClient(cluster)
    cc.open_connection()
    wl = selection_workload(128, 0.5, seed=7)
    sharded = cc.create_table("p", wl.schema, wl.rows,
                              PartitionSpec(replicas=1))
    schema = wl.schema
    vrows = make_rows(schema, 64, seed=8)
    vst = cc.create_versioned_table("v", schema, vrows)
    # Leave a delta on every shard so compact has real per-node work.
    cc.update_where(vst, Compare("a", "<", 10**9), {"c": 5})
    return sim, cluster, cc, sharded, vst, wl


#: verb name -> callable(cc, sharded, vst, wl) exercising it.
CLUSTER_VERBS = {
    "table_read": lambda cc, sharded, vst, wl: cc.table_read(sharded),
    "far_view": lambda cc, sharded, vst, wl:
        cc.far_view(sharded, select_star(wl.predicate)),
    "insert": lambda cc, sharded, vst, wl:
        cc.insert(vst, make_rows(wl.schema, 4, seed=9)),
    "update_where": lambda cc, sharded, vst, wl:
        cc.update_where(vst, Compare("a", "<", 10**9), {"c": 1}),
    "delete_where": lambda cc, sharded, vst, wl:
        cc.delete_where(vst, Compare("a", "<", 0)),
    "scan_versioned": lambda cc, sharded, vst, wl:
        cc.scan_versioned(vst, Query(projection=tuple(wl.schema.names),
                                     label="scan")),
    "read_version": lambda cc, sharded, vst, wl: cc.read_version(vst),
    "compact": lambda cc, sharded, vst, wl: cc.compact(vst),
}


@pytest.mark.parametrize("verb", list(CLUSTER_VERBS))
def test_crash_surfaces_as_fault_error_per_verb(verb):
    """With a node down, every verb fails via the FaultError branch of
    the taxonomy — catchable as FarviewError, never a hang, never an
    untyped exception."""
    sim, cluster, cc, sharded, vst, wl = _plain_setup()
    FaultInjector(cluster).crash(1)
    try:
        CLUSTER_VERBS[verb](cc, sharded, vst, wl)
    except FarviewError as exc:
        assert isinstance(exc, FaultError), \
            f"{verb} surfaced {type(exc).__name__}, not a FaultError"
    else:
        pytest.fail(f"{verb} succeeded against a crashed node")


@pytest.mark.parametrize("verb", list(CLUSTER_VERBS))
def test_verbs_work_when_healthy(verb):
    """The same verb table succeeds with no faults — the crash test
    above fails for the right reason."""
    sim, cluster, cc, sharded, vst, wl = _plain_setup()
    CLUSTER_VERBS[verb](cc, sharded, vst, wl)
