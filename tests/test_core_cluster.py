"""Sharded cluster: partitioning, scatter-gather, and merge exactness.

The load-bearing contract: under order-preserving chunk partitioning,
cluster results are *byte-identical* (sha256) to single-node execution on
the same data — pinned here for fig12's DISTINCT workload at N=2 and N=4
and for GROUP BY with every supported aggregate.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.baselines.sql_model import _aggregate, execute_model
from repro.baselines.sw_ops import software_groupby
from repro.common.errors import CatalogError, QueryError
from repro.common.expr import (CMP_OPS, BoolAnd, BoolOr, Cmp, Col, Lit,
                               eval_mask)
from repro.common.records import default_schema
from repro.core import (
    ClusterClient,
    FarviewClient,
    FarviewCluster,
    FarviewNode,
    PartitionSpec,
    partition_indices,
    plan_scatter,
    shard_assignment,
)
from repro.core.cluster import (_interval_may_match, merge_group_rows,
                                prune_scatter_shards)
from repro.core.pipeline_compiler import operator_chain
from repro.core.query import Query, select_distinct, select_star
from repro.core.table import FTable
from repro.experiments.common import EXPERIMENT_CONFIG
from repro.operators.aggregate import (PARTIAL_PREFIX, AggregateSpec,
                                       decompose_partials)
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import (distinct_workload, groupby_workload,
                                       selection_workload)

KB = 1024


def single_node_result(schema, rows, query):
    sim = Simulator()
    node = FarviewNode(sim, EXPERIMENT_CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    table = FTable("T", schema, len(rows))
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    result, _ = client.far_view(table, query)
    return result


def cluster_result(schema, rows, query, num_nodes, partition=None):
    sim = Simulator()
    cluster = FarviewCluster(sim, num_nodes, EXPERIMENT_CONFIG)
    client = ClusterClient(cluster)
    client.open_connection()
    sharded = client.create_table("T", schema, rows, partition)
    result, _ = client.far_view(sharded, query)
    return result


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- partitioning --------------------------------------------------------------

def test_partition_spec_validation():
    with pytest.raises(QueryError):
        PartitionSpec("zigzag")
    with pytest.raises(QueryError):
        PartitionSpec("hash")          # needs a key
    with pytest.raises(QueryError):
        PartitionSpec("chunk", key="a")
    assert PartitionSpec().order_preserving
    assert not PartitionSpec("hash", key="a").order_preserving


def test_range_bounds_validation_is_typed_at_spec_time():
    """Satellite regression: overlapping, unsorted, empty, or inverted
    explicit range bounds are a typed error when the spec is built —
    never a silent mis-route at create_table time."""
    ok = PartitionSpec("range", key="a", bounds=((0, 10), (10, 20)))
    assert ok.bounds == ((0.0, 10.0), (10.0, 20.0))
    with pytest.raises(QueryError, match="only apply to range"):
        PartitionSpec("hash", key="a", bounds=((0, 10),))
    with pytest.raises(QueryError, match="at least one"):
        PartitionSpec("range", key="a", bounds=())
    with pytest.raises(QueryError, match="empty or inverted"):
        PartitionSpec("range", key="a", bounds=((10, 10),))
    with pytest.raises(QueryError, match="empty or inverted"):
        PartitionSpec("range", key="a", bounds=((20, 10),))
    with pytest.raises(QueryError, match="sorted and non-overlapping"):
        PartitionSpec("range", key="a", bounds=((0, 10), (5, 20)))
    with pytest.raises(QueryError, match="sorted and non-overlapping"):
        PartitionSpec("range", key="a", bounds=((10, 20), (0, 10)))


def test_range_bounds_route_rows_and_reject_strays():
    schema, rows = distinct_workload(256, 64)
    lo, hi = float(rows["a"].min()), float(rows["a"].max()) + 1.0
    mid = (lo + hi) / 2
    spec = PartitionSpec("range", key="a", bounds=((lo, mid), (mid, hi)))
    ids = shard_assignment(rows, schema, spec, 2)
    assert np.array_equal(ids == 1, rows["a"] >= mid)
    with pytest.raises(QueryError, match="shards"):
        shard_assignment(rows, schema, spec, 3)  # bounds/shard mismatch
    narrow = PartitionSpec("range", key="a", bounds=((lo, mid), (mid, mid + 1)))
    if (rows["a"] >= mid + 1).any():
        with pytest.raises(QueryError, match="outside every range bound"):
            shard_assignment(rows, schema, narrow, 2)


def test_chunk_assignment_is_balanced_and_contiguous():
    schema, rows = distinct_workload(1000, 10)
    ids = shard_assignment(rows, schema, PartitionSpec(), 4)
    assert ids.min() == 0 and ids.max() == 3
    assert np.all(np.diff(ids) >= 0)  # contiguous ranges
    counts = np.bincount(ids, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_hash_assignment_colocates_equal_keys():
    schema, rows = distinct_workload(2048, 16)
    ids = shard_assignment(rows, schema, PartitionSpec("hash", key="a"), 4)
    for value in np.unique(rows["a"]):
        assert len(set(ids[rows["a"] == value])) == 1


def test_range_assignment_orders_by_value():
    schema, rows = distinct_workload(2048, 64)
    ids = shard_assignment(rows, schema, PartitionSpec("range", key="a"), 4)
    # Every row in a lower shard has a key <= every row in a higher one.
    for s in range(3):
        if (ids == s).any() and (ids > s).any():
            assert rows["a"][ids == s].max() <= rows["a"][ids > s].min()


def test_range_partitioning_rejects_char_keys():
    from repro.common.records import string_schema
    schema = string_schema(16)
    rows = schema.empty(4)
    with pytest.raises(QueryError, match="numeric"):
        shard_assignment(rows, schema, PartitionSpec("range", key="s"), 2)


def test_partition_indices_cover_every_row_once():
    schema, rows = distinct_workload(999, 7)
    for spec in (PartitionSpec(), PartitionSpec("hash", key="a"),
                 PartitionSpec("range", key="a")):
        parts = partition_indices(rows, schema, spec, 3)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(999))


# -- partial-aggregate decomposition -------------------------------------------

def test_decompose_passes_mergeable_specs_through():
    specs = [AggregateSpec("sum", "b"), AggregateSpec("count", "*"),
             AggregateSpec("min", "b"), AggregateSpec("max", "b")]
    shard_specs, plans = decompose_partials(specs)
    assert shard_specs == specs
    assert all(p.mode == "direct" for p in plans)


def test_decompose_rewrites_avg_into_sum_and_count():
    shard_specs, plans = decompose_partials([AggregateSpec("avg", "b")])
    funcs = {(s.func, s.column) for s in shard_specs}
    assert funcs == {("sum", "b"), ("count", "*")}
    assert all(s.alias.startswith(PARTIAL_PREFIX) for s in shard_specs)
    assert plans[0].mode == "ratio"


def test_decompose_shares_partials_between_avgs_and_keeps_originals():
    specs = [AggregateSpec("avg", "b"), AggregateSpec("sum", "b"),
             AggregateSpec("avg", "b", alias="b2")]
    shard_specs, plans = decompose_partials(specs)
    # One synthesized sum + one count shared by both avgs, plus user sum.
    assert len(shard_specs) == 3
    assert plans[0].sources == plans[2].sources


# -- scatter planning ----------------------------------------------------------

def test_plan_scatter_modes():
    assert plan_scatter(operator_chain(
        select_distinct(["a"]))).mode == "distinct"
    group = plan_scatter(operator_chain(Query(
        group_by=("a",), aggregates=(AggregateSpec("avg", "b"),),
        label="g")))
    assert group.mode == "group"
    # The shard chain's aggregate node carries the exact partials.
    assert [spec.func for spec in group.shard_chain[-1].aggregates] == [
        "sum", "count"]
    assert plan_scatter(operator_chain(Query(
        aggregates=(AggregateSpec("count", "*"),),
        label="agg"))).mode == "aggregate"
    wl = selection_workload(64, 0.5)
    assert plan_scatter(operator_chain(
        select_star(wl.predicate))).mode == "concat"


def test_plan_scatter_keeps_joins_in_shard_fragment():
    """Joins scatter unchanged (the router swaps in per-node build
    replicas); the merge mode comes from the post-join operators."""
    from repro.core.query import JoinSpec
    build = FTable("D", distinct_workload(8, 8)[0], 8)
    query = Query(join=JoinSpec(build, "a", "a", ("b",)), label="j")
    plan = plan_scatter(operator_chain(query))
    assert plan.mode == "concat"
    assert [op.kernel for op in plan.shard_chain] == ["join"]
    distinct = Query(join=JoinSpec(build, "a", "a", ("b",)),
                     distinct=True, label="jd")
    plan = plan_scatter(operator_chain(distinct))
    assert plan.mode == "distinct"
    assert [op.kernel for op in plan.shard_chain] == ["join", "distinct"]


# -- byte-identity: the acceptance criterion -----------------------------------

@pytest.mark.parametrize("num_nodes", [2, 4])
def test_fig12_distinct_workload_byte_identical(num_nodes):
    """Cluster DISTINCT == single node, sha256, on fig12's workload."""
    query = select_distinct(["a"])
    for seed in range(3):  # three of fig12's six client tables
        schema, rows = distinct_workload(64 * KB // 64, 64, seed=seed)
        ref = single_node_result(schema, rows, query)
        ref_bytes = ref.schema.to_bytes(ref.rows())
        got = cluster_result(schema, rows, query, num_nodes)
        assert sha(got.data) == sha(ref_bytes)


@pytest.mark.parametrize("num_nodes", [2, 4])
def test_group_by_all_aggregates_byte_identical(num_nodes):
    """GROUP BY with sum/count/avg/min/max over int values: exact merge."""
    schema, rows = groupby_workload(4096, 32, seed=11)
    rows = rows.copy()
    rows["c"] = np.arange(len(rows), dtype=np.int64) % 97  # exact int sums
    query = Query(group_by=("a",),
                  aggregates=(AggregateSpec("sum", "c"),
                              AggregateSpec("count", "*"),
                              AggregateSpec("avg", "c"),
                              AggregateSpec("min", "c"),
                              AggregateSpec("max", "c")),
                  label="g")
    ref = single_node_result(schema, rows, query)
    got = cluster_result(schema, rows, query, num_nodes)
    assert sha(got.data) == sha(ref.schema.to_bytes(ref.rows()))


@pytest.mark.parametrize("num_nodes", [2, 4])
def test_merge_group_rows_nan_and_int_avg_cells(num_nodes):
    """The merge kernel against the serial reference, then the pool end
    to end: a NaN that is its group's first value sticks under min/max,
    a later NaN is skipped, and avg over an int column is rebuilt from
    exact int sum + count partials."""
    schema, rows = groupby_workload(64 * num_nodes, 5, seed=3)
    rows = rows.copy()
    rows["a"] = np.arange(len(rows)) % 5
    rows["b"] = np.arange(len(rows), dtype=np.float64)
    rows["c"] = np.arange(len(rows), dtype=np.int64) * 7 % 101
    rows["b"][0] = np.nan   # group 0: first value
    rows["b"][6] = np.nan   # group 1: a later member, on the first shard
    aggregates = (AggregateSpec("min", "b"), AggregateSpec("max", "b"),
                  AggregateSpec("avg", "c"), AggregateSpec("sum", "c"),
                  AggregateSpec("count", "*"))
    _, expected = _aggregate(schema, rows, ["a"], list(aggregates))
    assert np.isnan(expected["min_b"][0]) and np.isnan(expected["max_b"][0])
    assert expected["min_b"][1] == 1.0
    shard_specs, plans = decompose_partials(aggregates)
    partials = np.concatenate([
        software_groupby(chunk, schema, ["a"], shard_specs).rows
        for chunk in np.array_split(rows, num_nodes)])
    merged = merge_group_rows(partials, schema, ["a"], shard_specs, plans)
    assert merged.tobytes() == expected.tobytes()
    got = cluster_result(schema, rows,
                         Query(group_by=("a",), aggregates=aggregates),
                         num_nodes)
    assert got.data == expected.tobytes()


@pytest.mark.parametrize("placement", ["offload", "ship"])
@pytest.mark.parametrize("num_nodes", [1, 2, 4])
def test_grouped_min_max_zero_ties_match_the_model(num_nodes, placement):
    """``0.0`` and ``-0.0`` tie under MIN/MAX and the reference keeps the
    one a group met first; so must the node's fold, the shipped kernel
    and the pool's partial merge, to the sign bit."""
    schema, rows = groupby_workload(9, 3, seed=1)
    rows = rows.copy()
    rows["a"] = [1, 1, 2, 2, 1, 2, 3, 3, 3]
    rows["b"] = [0.0, -0.0, -0.0, 0.0, 5.0, 5.0, -1.0, 0.0, -0.0]
    statement = "SELECT a, MIN(b), MAX(b) FROM t GROUP BY a"
    _, expected = execute_model(statement, {"t": (schema, rows)})
    assert np.signbit(expected["min_b"]).tolist() == [False, True, True]
    client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                          EXPERIMENT_CONFIG))
    client.open_connection()
    client.create_table("t", schema, rows)
    result, _ = client.sql(statement, placement=placement)
    assert result.schema.to_bytes(result.rows()) == expected.tobytes()


@pytest.mark.parametrize("placement", ["offload", "ship"])
@pytest.mark.parametrize("num_nodes", [1, 2, 4])
def test_global_min_max_take_a_nan_from_any_burst(num_nodes, placement):
    """The reference's global MIN/MAX is ``col.min()``: a NaN anywhere
    wins — also one that sits in a later DRAM burst, or on a later
    shard, than the running extreme it meets."""
    schema, rows = groupby_workload(4096, 7, seed=1)
    rows = rows.copy()
    rows["b"] = 10.0 + np.arange(4096) % 7
    rows["b"][3000:3003] = [np.nan, 0.5, 99.0]
    statement = "SELECT MIN(b), MAX(b), COUNT(*) FROM t"
    _, expected = execute_model(statement, {"t": (schema, rows)})
    assert np.isnan(expected["min_b"][0]) and np.isnan(expected["max_b"][0])
    client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                          EXPERIMENT_CONFIG))
    client.open_connection()
    client.create_table("t", schema, rows)
    result, _ = client.sql(statement, placement=placement)
    assert result.schema.to_bytes(result.rows()) == expected.tobytes()


def test_selection_concat_byte_identical():
    wl = selection_workload(4096, 0.5, seed=8)
    query = select_star(wl.predicate)
    ref = single_node_result(wl.schema, wl.rows, query)
    got = cluster_result(wl.schema, wl.rows, query, 3)
    assert sha(got.data) == sha(ref.schema.to_bytes(ref.rows()))


def test_standalone_aggregate_merge_exact_under_skew():
    schema, rows = groupby_workload(1000, 5, seed=2)
    rows = rows.copy()
    rows["c"] = np.arange(1000, dtype=np.int64)
    query = Query(aggregates=(AggregateSpec("avg", "c"),
                              AggregateSpec("sum", "c"),
                              AggregateSpec("count", "*"),
                              AggregateSpec("min", "c"),
                              AggregateSpec("max", "c")),
                  label="agg")
    ref = single_node_result(schema, rows, query)
    # range partitioning on "a" gives deliberately uneven shards.
    got = cluster_result(schema, rows, query, 3,
                         PartitionSpec("range", key="a"))
    assert sha(got.data) == sha(ref.schema.to_bytes(ref.rows()))
    assert got.rows()["avg_c"][0] == pytest.approx(999 / 2)


def test_hash_partitioned_groupby_is_set_equal():
    """Hash placement interleaves order but the group set is exact."""
    schema, rows = groupby_workload(4096, 48, seed=4)
    rows = rows.copy()
    rows["c"] = np.arange(len(rows), dtype=np.int64) % 31
    query = Query(group_by=("a",),
                  aggregates=(AggregateSpec("sum", "c"),), label="g")
    ref = single_node_result(schema, rows, query)
    got = cluster_result(schema, rows, query, 4, PartitionSpec("hash", "a"))
    assert (sorted(map(tuple, got.rows().tolist()))
            == sorted(map(tuple, ref.rows().tolist())))


# -- verbs ---------------------------------------------------------------------

def test_table_read_chunk_roundtrips_original_image():
    schema, rows = distinct_workload(2048, 16, seed=9)
    sim = Simulator()
    client = ClusterClient(FarviewCluster(sim, 4, EXPERIMENT_CONFIG))
    client.open_connection()
    sharded = client.create_table("R", schema, rows)
    data, elapsed = client.table_read(sharded)
    assert data == schema.to_bytes(rows)
    assert elapsed > 0


def test_cluster_sql_round_trip():
    schema, rows = distinct_workload(1024, 8, seed=1)
    sim = Simulator()
    client = ClusterClient(FarviewCluster(sim, 2, EXPERIMENT_CONFIG))
    client.open_connection()
    client.create_table("demo", schema, rows)
    result, _ = client.sql("SELECT DISTINCT a FROM demo")
    assert result.num_rows == 8


@pytest.mark.parametrize("key, big, op, sql_op, literal, matches, pruned", [
    ("a", 2**53 + 1, ">", ">", 2**53, 4, (0,)),
    ("a", 2**53 + 1, "!=", "<>", 2**53, 8, ()),
    ("a", 2**53 + 1, "<=", "<=", float(2**53), 8, ()),
    ("a", 2**53 + 1, "==", "=", float(2**53), 4, (0,)),
    ("b", float(2**53), "==", "=", 2**53 + 1, 4, (0,)),
])
def test_range_pruning_is_exact_for_int64_keys_beyond_2_53(
        key, big, op, sql_op, literal, matches, pruned):
    """A shard's key span compares with a literal exactly as the
    evaluator does.  Read as float64, the int64 span ``[2**53 + 1,
    2**53 + 1]`` collapsed to ``2**53`` and ``>`` / ``!=`` against the
    int ``2**53`` pruned the shard holding their matches.  Against a
    float literal (or a float key against an int one) the evaluator
    rounds to float64, so pruning must too — under ``far_view`` and
    under SQL alike."""
    schema = default_schema()
    rows = schema.empty(8)
    rows[key] = [0, 1, 2, 3] + [big] * 4
    client = ClusterClient(FarviewCluster(Simulator(), 2, EXPERIMENT_CONFIG))
    client.open_connection()
    table = client.create_table("big", schema, rows, PartitionSpec(
        "range", key=key, bounds=((0, 2**52), (2**52, 2**54))))
    query = select_star(Compare(key, op, literal))
    assert prune_scatter_shards(table, operator_chain(query)) == pruned
    expected = schema.to_bytes(rows[eval_mask(query.predicate, rows)])
    viewed, _ = client.far_view(table, query)
    bound, _ = client.sql(f"SELECT * FROM big WHERE {key} {sql_op} {literal}")
    assert viewed.num_rows == bound.num_rows == matches
    assert viewed.data == bound.data == expected


_SPAN_EDGES = {"a": [-1, 0, 3, 2**53, 2**53 + 1, 2**63 - 1],
               "b": [-1.0, -0.0, 0.0, 0.5, 2.0**53, 2.0**60]}
_SPAN_LITERALS = [-1, 0, 2**53, 2**53 + 1, 2**63 - 1, 2**64,
                  -0.0, 0.5, 2.0**53, float("nan")]
#: The literals whose comparisons the AND / OR cases pair up.
_COMPOUND_LITERALS = [-1, 2**53 + 1, 0.5, float("nan")]


@pytest.mark.parametrize("key", ["a", "b"])
def test_pruned_span_holds_no_matching_row(key):
    """Soundness of range pruning against the evaluator, exhaustively
    over edge spans: a span it calls empty holds no value ``eval_mask``
    matches, for single comparisons across int/float promotion, values
    beyond 2**53, signed zeros and NaN literals, and for every AND / OR
    of two comparisons.  A non-numeric literal, which the evaluator
    cannot compare with a number, never prunes, not even beside a
    comparison that would."""
    def compare(op, value):
        return Cmp(op, Col(key), Lit(value))

    pairs = list(itertools.starmap(
        compare, itertools.product(CMP_OPS, _COMPOUND_LITERALS)))
    conditions = list(itertools.starmap(
        compare, itertools.product(CMP_OPS, _SPAN_LITERALS)))
    conditions += [kind(p, q) for kind in (BoolAnd, BoolOr)
                   for p, q in itertools.product(pairs, repeat=2)]
    opaque = [compare(op, value) for op in CMP_OPS for value in ("x", b"x")]
    opaque += [BoolOr(p, q) for p, q in itertools.product(pairs, opaque)]
    edges = _SPAN_EDGES[key]
    for i, j in itertools.combinations_with_replacement(range(len(edges)), 2):
        rows = default_schema().empty(j - i + 1)
        rows[key] = edges[i:j + 1]
        lo, hi = rows[key].min(), rows[key].max()
        for cond in conditions:
            if not _interval_may_match(cond, key, lo, hi):
                assert not eval_mask(cond, rows).any(), (cond, lo, hi)
        for cond in opaque:
            assert _interval_may_match(cond, key, lo, hi), (cond, lo, hi)


def test_create_table_skips_empty_shards_and_registers():
    schema, rows = distinct_workload(3, 3, seed=0)
    sim = Simulator()
    client = ClusterClient(FarviewCluster(sim, 8, EXPERIMENT_CONFIG))
    client.open_connection()
    sharded = client.create_table("tiny", schema, rows)
    assert len(sharded.shards) <= 3  # 3 rows cannot fill 8 shards
    assert "tiny" in client.catalog
    client.drop_table(sharded)
    assert "tiny" not in client.catalog


def test_create_table_rejects_duplicate_name_before_writing():
    """Duplicate names fail upfront, before any shard bytes move."""
    schema, rows = distinct_workload(1024, 8, seed=0)
    sim = Simulator()
    cluster = FarviewCluster(sim, 2, EXPERIMENT_CONFIG)
    client = ClusterClient(cluster)
    client.open_connection()
    client.create_table("dup", schema, rows)
    written_before = [node.mmu.bytes_written for node in cluster.nodes]
    with pytest.raises(CatalogError, match="already registered"):
        client.create_table("dup", schema, rows)
    assert [node.mmu.bytes_written for node in cluster.nodes] == written_before
    # The surviving original is untouched and still fully droppable.
    original = client.catalog.lookup("dup")
    result, _ = client.far_view(original, select_distinct(["a"]))
    assert result.num_rows == 8
    client.drop_table(original)
    assert "dup" not in client.catalog


def test_create_table_failure_frees_partial_shards():
    """A mid-scatter failure must roll back already-written shards."""
    schema, rows = distinct_workload(1024, 8, seed=0)
    sim = Simulator()
    cluster = FarviewCluster(sim, 2, EXPERIMENT_CONFIG)
    client = ClusterClient(cluster)
    client.open_connection()

    def exploding_write(table, data):
        raise RuntimeError("link died mid-upload")

    client.node_client(1).table_write = exploding_write
    pages_before = [node.mmu.domain_pages(conn.domain)
                    for node, conn in zip(
                        cluster.nodes,
                        [client.node_client(i).connection for i in range(2)])]
    with pytest.raises(RuntimeError, match="mid-upload"):
        client.create_table("doomed", schema, rows)
    pages_after = [node.mmu.domain_pages(conn.domain)
                   for node, conn in zip(
                       cluster.nodes,
                       [client.node_client(i).connection for i in range(2)])]
    assert pages_after == pages_before  # node 0's shard was rolled back
    assert "doomed" not in client.catalog


def _pool_client(num_nodes: int):
    """The one client by either constructor: ``FarviewClient(node)`` for
    one node, ``ClusterClient`` over a pool otherwise."""
    sim = Simulator()
    if num_nodes == 1:
        client = FarviewClient(FarviewNode(sim, EXPERIMENT_CONFIG))
    else:
        client = ClusterClient(FarviewCluster(sim, num_nodes,
                                              EXPERIMENT_CONFIG))
    client.open_connection()
    nodes = [client.node_client(i).node for i in range(num_nodes)]
    return client, nodes


@pytest.mark.parametrize("failure", ["dtype", "mid-upload"])
@pytest.mark.parametrize("writable", [False, True],
                         ids=["plain", "versioned"])
@pytest.mark.parametrize("num_nodes", [1, 2])
def test_refused_create_conserves_pool_pages(num_nodes, writable, failure):
    """The one create loop refuses what it can before the first
    allocation and rolls back every segment and replica on any later
    failure, for a replicated spec (``plain``: never writable) and the
    default, writable one (``versioned``).  Failing-first: a mistyped
    create of a writable table once raised *after* allocating the base
    segment and never freed it (one page gone per refused create, on
    one node and on node 0 of a pool)."""
    schema, rows = distinct_workload(1024, 8, seed=0)
    client, nodes = _pool_client(num_nodes)
    spec = PartitionSpec() if writable else PartitionSpec(replicas=2)
    if failure == "dtype":
        rows = selection_workload(1024, 0.5, seed=0).rows[["a", "b"]]
        error, match = QueryError, "dtype"
    else:
        def exploding_write(table, data):
            raise RuntimeError("link died mid-upload")

        client.node_client(num_nodes - 1).table_write = exploding_write
        error, match = RuntimeError, "mid-upload"
    free0 = [n.mmu.allocator.free_pages for n in nodes]
    with pytest.raises(error, match=match):
        client.create_table("doomed", schema, rows, spec)
    assert [n.mmu.allocator.free_pages for n in nodes] == free0
    assert "doomed" not in client.catalog


def test_open_connection_unwinds_on_full_node():
    """Partial open must release the regions it already acquired."""
    from repro.common.config import (FarviewConfig, MemoryConfig,
                                     OperatorStackConfig)
    config = FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=8 * 1024 * 1024,
                            page_size=64 * KB),
        operator_stack=OperatorStackConfig(regions=1))
    sim = Simulator()
    cluster = FarviewCluster(sim, 2, config)
    # Exhaust node 1's single region so the pool-wide open must fail.
    blocker = FarviewClient(cluster.node(1))
    blocker.open_connection()
    client = ClusterClient(cluster)
    from repro.common.errors import RegionUnavailableError
    with pytest.raises(RegionUnavailableError):
        client.open_connection()
    assert cluster.node(0).free_regions == 1  # node 0's region was returned
    blocker.close_connection()
    client.open_connection()  # now the pool-wide open succeeds
    client.close_connection()


def test_create_table_rejects_empty_rows():
    schema, rows = distinct_workload(0, 1)
    sim = Simulator()
    client = ClusterClient(FarviewCluster(sim, 2, EXPERIMENT_CONFIG))
    client.open_connection()
    with pytest.raises(QueryError, match="empty"):
        client.create_table("nothing", schema, rows)


def test_cluster_needs_at_least_one_node():
    with pytest.raises(QueryError):
        FarviewCluster(Simulator(), 0)


def test_sharded_table_needs_shards():
    from repro.core.table import Table
    schema, _ = distinct_workload(1, 1)
    with pytest.raises(CatalogError):
        Table("x", schema, PartitionSpec(), [])


# -- scale-out behaviour -------------------------------------------------------

def test_scatter_gather_response_time_improves_with_nodes():
    schema, rows = distinct_workload(16 * KB, 64, seed=3)
    query = select_distinct(["a"])
    times = []
    for num_nodes in (1, 2, 4):
        sim = Simulator()
        client = ClusterClient(FarviewCluster(sim, num_nodes,
                                              EXPERIMENT_CONFIG))
        client.open_connection()
        sharded = client.create_table("T", schema, rows)
        client.far_view(sharded, query)  # deploy (warm pipelines)
        _, elapsed = client.far_view(sharded, query)
        times.append(elapsed)
    assert times[1] < times[0] * 0.65  # near-halving, allowing overheads
    assert times[2] < times[1] * 0.65


def test_shards_report_partial_bytes_and_merged_rows_are_final():
    schema, rows = distinct_workload(4096, 64, seed=6)
    result = cluster_result(schema, rows, select_distinct(["a"]), 4)
    assert len(result.parts) == 4
    # Every shard shipped some keys; the merge removed cross-shard dupes.
    total_shard_rows = sum(len(r.rows()) for r in result.parts)
    assert total_shard_rows >= result.num_rows
    assert result.bytes_shipped >= result.num_rows * 8


def test_both_clients_expose_one_verb_set():
    """Parity: every public ``*_proc`` generator of either client has a
    docstring and a blocking twin generated from it by the wrapper table
    (or the one hand-written verb that does more than wrap), and every
    verb the two clients share takes the same parameters — one client
    may extend the shared list with its topology's options, never rename
    it."""
    import inspect

    from repro.core.api import ClusterClient as Cluster
    from repro.core.api import FarviewClient as Single

    for cls in (Single, Cluster):
        procs = [n for n in dir(cls)
                 if n.endswith("_proc") and not n.startswith("_")]
        assert len(procs) >= 16
        for name in procs:
            assert inspect.getdoc(getattr(cls, name)), f"{cls.__name__}.{name}"
            verb = name.removesuffix("_proc")
            twin = inspect.getattr_static(cls, verb)
            if "__wrapped__" in vars(twin):
                assert twin.__wrapped__ is inspect.getattr_static(cls, name)
                assert inspect.getdoc(twin.__wrapped__) in twin.__doc__
            else:
                # The byte image: it returns bytes, not the proc's rows.
                assert verb == "read_version", f"{cls.__name__}.{verb}"

    def public(cls):
        return {n for n in dir(cls) if not n.startswith("_")
                and callable(getattr(cls, n))}

    shared = public(Single) & public(Cluster)
    assert {"far_view", "far_view_planned", "select", "sql", "plan",
            "insert", "update_where", "delete_where", "compact",
            "scan_versioned", "create_view", "table_read"} <= shared
    for verb in sorted(shared):
        a = list(inspect.signature(getattr(Single, verb)).parameters)
        b = list(inspect.signature(getattr(Cluster, verb)).parameters)
        short, long_ = sorted((a[1:], b[1:]), key=len)
        assert long_[:len(short)] == short, f"{verb}: {a} vs {b}"


# -- a single memory node is the one-shard pool ----------------------------------

def _one_node_workload(client):
    """The same plain + versioned workload, verb for verb: every cell is
    ``(canonical bytes, elapsed_ns)``."""
    from repro.common.records import Column, Schema
    from repro.core.api import canonical_result_bytes
    from repro.core.query import JoinSpec
    from repro.operators.selection import Compare

    wl = selection_workload(2048, 0.5, seed=12)
    rows = wl.rows.copy()
    rows["a"] = np.arange(len(rows)) % 48
    dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
    dim = dim_schema.empty(32)
    dim["id"] = np.arange(32)
    dim["rate"] = np.arange(32) * 0.5
    plain = client.create_table("p", wl.schema, rows)
    build = client.create_table("dim", dim_schema, dim)
    vt = client.create_versioned_table("v", wl.schema, rows)
    group = Query(group_by=("a",), aggregates=(AggregateSpec("avg", "b"),
                                               AggregateSpec("count", "*")))
    join = Query(join=JoinSpec(build, "id", "a", ("rate",)))
    cells = []

    def run(verb, *args, **kwargs):
        result, elapsed = verb(*args, **kwargs)
        if isinstance(result, int):          # a write verb: the new epoch
            cells.append((result, elapsed))
        else:
            cells.append((canonical_result_bytes(result), elapsed))

    for table in (plain, vt):
        run(client.far_view, table, select_star(wl.predicate))
        run(client.far_view, table, select_star(wl.predicate))   # warm
        run(client.far_view, table, select_distinct(["a"]))
        run(client.far_view, table, group)
        run(client.far_view, table, join)                 # cold: places dim
        run(client.far_view, table, join)
    run(client.update_where, vt, Compare("a", "<", 8), {"c": 7})
    run(client.insert, vt, rows[:16])
    for as_of in (0, 1, 2):
        run(client.scan_versioned, vt, select_star(wl.predicate),
            as_of=as_of)
    run(client.compact, vt)
    run(client.scan_versioned, vt, select_star(wl.predicate))
    run(client.select, vt, ["a", "c"], wl.predicate, placement="ship")
    return cells


def test_one_node_cluster_is_the_farview_client():
    """Not a different system: the same workload through
    ``FarviewClient(node)`` and through ``ClusterClient`` over a
    one-node cluster returns equal canonical bytes **and** equal
    ``elapsed_ns``, cell by cell — and a one-shard scan hands back the
    node's own result (report + stream), not a merged copy."""
    sim = Simulator()
    single = FarviewClient(FarviewNode(sim, EXPERIMENT_CONFIG))
    single.open_connection()
    pooled = ClusterClient(FarviewCluster(Simulator(), 1, EXPERIMENT_CONFIG))
    pooled.open_connection()
    assert _one_node_workload(single) == _one_node_workload(pooled)
    for client in (single, pooled):
        table = client.catalog.lookup("p")
        result, _ = client.far_view(table, select_distinct(["a"]))
        assert result.report is not None and result.stream is not None
        assert result.merged is None and result.parts == []


def test_raw_ftable_and_created_table_scan_alike():
    """The paper's memory verbs and the create loop build the same
    one-shard table: a raw ``FTable`` is coerced to its handle at entry
    and scans in the same simulated time, to the same bytes."""
    schema, rows = distinct_workload(2048, 16, seed=5)
    query = select_distinct(["a"])
    raw_client, _ = _pool_client(1)
    raw = FTable("T", schema, len(rows))
    raw_client.alloc_table_mem(raw)
    raw_client.table_write(raw, rows)
    made_client, _ = _pool_client(1)
    made = made_client.create_table("T", schema, rows)
    cells = []
    for client, table in ((raw_client, raw), (made_client, made)):
        client.far_view(table, query)                     # deploy
        result, elapsed = client.far_view(table, query)
        image, read_ns = client.table_read(table)
        cells.append((result.data, elapsed, image, read_ns))
    assert cells[0] == cells[1]


# -- versioned tables through the one scatter ------------------------------------

def _versioned_join_inputs():
    from repro.common.records import Column, Schema

    wl = selection_workload(192, 1.0, seed=9)
    fact = wl.rows.copy()
    fact["a"] = np.arange(len(fact)) % 48
    dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
    dim = dim_schema.empty(32)
    dim["id"] = np.arange(32)
    dim["rate"] = np.arange(32) * 0.5
    return wl.schema, fact, dim_schema, dim


def test_versioned_cluster_join_is_a_broadcast_join():
    """A versioned cluster table scans through the same scatter as a
    plain one: its join build side is broadcast (and says so on the
    result), the merge is sha-identical to the single-node versioned
    join, and a partitioned strategy is refused by the ordinary
    feasibility check."""
    from repro.core.query import JoinSpec

    schema, fact, dim_schema, dim = _versioned_join_inputs()
    head = len(fact) // 2

    single = FarviewClient(FarviewNode(Simulator(), EXPERIMENT_CONFIG))
    single.open_connection()
    dim_table = FTable("dim", dim_schema, len(dim))
    single.alloc_table_mem(dim_table)
    single.table_write(dim_table, dim)
    vfact = single.create_versioned_table("fact", schema, fact[:head])
    single.insert(vfact, fact[head:])
    reference, _ = single.far_view(
        vfact, Query(join=JoinSpec(dim_table, "id", "a", ("rate",))))
    assert reference.num_rows == 128  # two of every three keys match

    cc = ClusterClient(FarviewCluster(Simulator(), 3, EXPERIMENT_CONFIG))
    cc.open_connection()
    ds = cc.create_table("dim", dim_schema, dim)
    vs = cc.create_versioned_table("fact", schema, fact[:head])
    cc.insert(vs, fact[head:])
    query = Query(join=JoinSpec(ds, "id", "a", ("rate",)))
    for result in (cc.far_view(vs, query)[0],
                   cc.scan_versioned(vs, query)[0],
                   cc.far_view(vs, query, join_strategy="broadcast")[0]):
        assert result.join_strategy == "broadcast"
        assert sha(result.data) == sha(reference.data)
    for strategy in ("colocated", "shuffle"):
        with pytest.raises(QueryError, match="infeasible"):
            cc.far_view(vs, query, join_strategy=strategy)


def test_versioned_cluster_scan_fails_over_like_a_plain_one():
    """A version chain is its own single candidate: with its node down
    the scan reports ``NodeFailedError`` — or, under
    ``allow_degraded``, a ``DegradedResultError`` whose partial is the
    merge of the surviving shards."""
    from repro.common.errors import DegradedResultError, NodeFailedError

    wl = selection_workload(192, 0.5, seed=10)
    cluster = FarviewCluster(Simulator(), 3, EXPERIMENT_CONFIG)
    cc = ClusterClient(cluster)
    cc.open_connection()
    vs = cc.create_versioned_table("v", wl.schema, wl.rows)
    query = select_star(wl.predicate)
    complete, _ = cc.scan_versioned(vs, query)
    cluster.node(1).fail()
    with pytest.raises(NodeFailedError):
        cc.scan_versioned(vs, query)
    cc.allow_degraded = True
    with pytest.raises(DegradedResultError) as info:
        cc.scan_versioned(vs, query)
    assert info.value.failed_shards == (1,)
    kept = np.concatenate([
        wl.rows[idx] for shard, idx in enumerate(
            partition_indices(wl.rows, wl.schema, PartitionSpec(), 3))
        if shard != 1])
    expected = kept[eval_mask(wl.predicate, kept)]
    assert 0 < len(expected) < complete.num_rows
    assert sha(info.value.partial.data) == sha(wl.schema.to_bytes(expected))
