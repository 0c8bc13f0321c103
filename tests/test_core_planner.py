"""Cost-based placement planner: golden crossovers, exactness, explain.

Three layers of guarantees:

* **Golden crossover pins** — the analytic cost model is deterministic,
  so the offload/ship decision at fixed inputs is pinned exactly for
  selection and DISTINCT (the fig14 scenario: cold small regions).
* **Exactness property** — whatever the planner picks, result bytes are
  sha256-identical to full offload (hypothesis-driven over query shape,
  selectivity, widths and placements; integer columns, where the
  contract is bit-exact).
* **Observability** — ExplainPlan carries every candidate, the chosen
  per-operator placement, and estimated vs actual ns within sanity
  bounds; warm regions flip decisions the way the docs promise.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import calibration as cal
from repro.common.config import (FarviewConfig, MemoryConfig,
                                 OperatorStackConfig)
from repro.common.units import MB
from repro.core.api import FarviewClient, canonical_result_bytes
from repro.core.cost_model import PlanStats
from repro.core.node import FarviewNode
from repro.core.pipeline_compiler import (compile_chain, compile_query,
                                          operator_chain)
from repro.core.planner import chain_labels, plan_placement
from repro.core.query import Query, select_distinct, select_star
from repro.core.table import FTable
from repro.fpga.region import RegionManager
from repro.operators.aggregate import AggregateSpec
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import (distinct_workload, projection_workload,
                                       selection_workload)

#: The fig14 ad-hoc scenario: small selection-only regions (6% of a full
#: region swap), experiment-sized memory.
SCENARIO = FarviewConfig(
    memory=MemoryConfig(channels=2, channel_capacity=64 * MB),
    operator_stack=OperatorStackConfig(
        reconfiguration_ns=cal.reconfiguration_latency_ns(0.06)))


def _table(schema, nrows, name="S"):
    return FTable(name, schema, nrows)


def _plan_selection(selectivity: float, width: int, table_mb: float = 1.0):
    nrows = int(table_mb * MB) // width
    schema, _ = projection_workload(8, width)  # schema only; rows unused
    query = Query(predicate=Compare("a", "<", 1), label="golden")
    return plan_placement(query, _table(schema, nrows), SCENARIO,
                          placement="auto",
                          stats=PlanStats(selectivity=selectivity))


class TestGoldenCrossovers:
    """Pinned decisions of the deterministic cost model (fig14 scenario)."""

    def test_selection_crossover_64B(self):
        # 64 B tuples, 1 MB, cold region: ship wins the selective half,
        # offload wins once egress reduction stops paying for the
        # reconfiguration; the crossover sits between 0.50 and 0.75.
        decisions = {sel: _plan_selection(sel, 64).chosen
                     for sel in (0.02, 0.1, 0.25, 0.5, 0.75, 1.0)}
        assert decisions == {0.02: "ship", 0.1: "ship", 0.25: "ship",
                             0.5: "ship", 0.75: "offload", 1.0: "offload"}

    def test_selection_crossover_moves_with_width(self):
        # Wider tuples -> fewer tuples -> cheaper client software -> the
        # ship region extends to higher selectivities.
        assert _plan_selection(0.75, 64).chosen == "offload"
        assert _plan_selection(0.75, 512).chosen == "ship"

    def test_selection_tiny_table_ships(self):
        # A 64 kB table cannot amortize the reconfiguration at all.
        for sel in (0.02, 0.5, 1.0):
            plan = _plan_selection(sel, 64, table_mb=1 / 16)
            assert plan.chosen == "ship", sel

    def test_distinct_crossover_512B(self):
        # DISTINCT over 512 B tuples, 1 MB, cold region: the unique
        # fraction drives shipped bytes; crossover between 0.50 and 0.75.
        wide_schema, _ = projection_workload(8, 512)
        query = Query(projection=tuple(wide_schema.names),
                      distinct=True, label="golden-distinct")
        decisions = {}
        for ratio in (0.02, 0.1, 0.25, 0.5, 0.75, 1.0):
            plan = plan_placement(
                query, _table(wide_schema, MB // 512), SCENARIO,
                placement="auto", stats=PlanStats(distinct_ratio=ratio))
            decisions[ratio] = plan.chosen
        assert decisions == {0.02: "ship", 0.1: "ship", 0.25: "ship",
                             0.5: "ship", 0.75: "offload", 1.0: "offload"}

    def test_distinct_narrow_tuples_offload(self):
        # 64 B tuples: per-tuple client hashing dominates; offload wins
        # even at the selective end despite the cold region.
        schema, _ = distinct_workload(8, 8)
        query = select_distinct(["a"])
        for ratio in (0.02, 0.5, 1.0):
            plan = plan_placement(
                query, _table(schema, MB // schema.row_width), SCENARIO,
                placement="auto", stats=PlanStats(distinct_ratio=ratio))
            assert plan.chosen == "offload", ratio

    def test_warm_region_always_offloads(self):
        # With the query's pipeline already resident there is no setup
        # charge and Farview wins everywhere (Figures 8-12).
        for sel in (0.02, 0.5, 1.0):
            nrows = MB // 64
            schema, _ = projection_workload(8, 64)
            query = Query(predicate=Compare("a", "<", 1), label="golden")
            table = _table(schema, nrows)
            region = RegionManager(Simulator(),
                                   SCENARIO.operator_stack).acquire(qp_id=1)
            region.sim.run_process(region.load_pipeline(
                compile_query(query, table, SCENARIO).signature))
            plan = plan_placement(query, table, SCENARIO,
                                  placement="auto",
                                  stats=PlanStats(selectivity=sel),
                                  region=region)
            assert plan.chosen == "offload", sel


class TestChainAndFragments:
    def test_operator_chain_order(self):
        query = Query(projection=("a",), predicate=Compare("a", "<", 1),
                      distinct=True, label="t")
        assert chain_labels(operator_chain(query)) == [
            "selection", "projection", "distinct"]

    def test_full_split_is_identity(self):
        query = select_star(Compare("a", "<", 1))
        table = _table(projection_workload(8, 64)[0], 8)
        chain = operator_chain(query)
        assert compile_chain(chain, table, SCENARIO).signature == \
            compile_query(query, table, SCENARIO).signature

    def test_prefix_fragments_validate(self):
        query = Query(projection=("a", "b"),
                      predicate=Compare("a", "<", 1),
                      group_by=("a",),
                      aggregates=(AggregateSpec("sum", "b"),),
                      label="t")
        table = _table(projection_workload(8, 64)[0], 8)
        chain = operator_chain(query)
        signatures = [compile_chain(chain[:k], table, SCENARIO).signature
                      for k in range(len(chain) + 1)]
        assert signatures == ["raw-read", "sel[a < 1]", "sel[a < 1]|proj[a,b]",
                              "sel[a < 1]|proj[a,b]|groupby[a;sum(b)]"]

    def test_join_is_splittable(self):
        """Joins sit in the chain after selection and ship cleanly now
        that :func:`~repro.baselines.sw_ops.software_join` exists."""
        from repro.core.query import JoinSpec

        schema, _ = projection_workload(8, 64)
        build = _table(schema, 8, name="dim")
        query = Query(predicate=Compare("a", "<", 1),
                      join=JoinSpec(build, "a", "a", ("b",)), label="t")
        chain = operator_chain(query)
        assert chain_labels(chain) == ["selection", "join"]
        fragment = compile_chain(chain[:1], _table(schema, 1024), SCENARIO)
        assert fragment.signature == "sel[a < 1]"
        plan = plan_placement(query, _table(schema, 1024), SCENARIO,
                              placement="ship")
        assert plan.chosen == "ship" and "join" in plan.chain[plan.split:]

    def test_join_build_overflow_refuses_offload_but_auto_ships(self):
        """An oversized build side is a typed refusal on the offload
        side; auto placement routes the join to the client instead."""
        from repro.common.config import OperatorStackConfig
        from repro.common.errors import JoinBuildOverflowError
        from repro.core.query import JoinSpec

        tiny = FarviewConfig(
            memory=SCENARIO.memory,
            operator_stack=OperatorStackConfig(cuckoo_slots=4,
                                               cuckoo_tables=1))
        schema, _ = projection_workload(8, 64)
        build = _table(schema, 64, name="dim")
        query = Query(join=JoinSpec(build, "a", "a", ("b",)), label="t")
        with pytest.raises(JoinBuildOverflowError):
            plan_placement(query, _table(schema, 1024), tiny,
                           placement="offload")
        plan = plan_placement(query, _table(schema, 1024), tiny,
                              placement="auto")
        assert "join" in plan.chain[plan.split:]


# ---------------------------------------------------------------------------
# Execution: exactness and explain
# ---------------------------------------------------------------------------

def _bench(buffer_capacity=2 * MB):
    sim = Simulator()
    node = FarviewNode(sim, SCENARIO)
    client = FarviewClient(node, buffer_capacity=buffer_capacity)
    client.open_connection()
    return client


def _digest(result) -> str:
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


@settings(max_examples=15, deadline=None)
@given(
    selectivity=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    nrows=st.sampled_from([1, 7, 64, 257]),
    shape=st.sampled_from(["select", "select_proj", "distinct",
                           "groupby", "aggregate"]),
    placement=st.sampled_from(["auto", "ship"]),
)
def test_placement_never_changes_bytes(assert_uniform_result, selectivity,
                                       nrows, shape, placement):
    """Property: auto/ship results are sha256-identical to full offload.

    Group-by sums stay bit-exact even over the float column because the
    hardware operator and the software kernel accumulate per-row in the
    same stream order; a standalone sum is one whole-column sum on both
    sides, since the node runs its operators once over the scan.
    """
    wl = selection_workload(nrows, selectivity, seed=nrows)
    if shape == "select":
        query = Query(predicate=wl.predicate, label="p")
    elif shape == "select_proj":
        query = Query(projection=("a", "b"), predicate=None, label="p")
    elif shape == "distinct":
        query = Query(projection=("a",), distinct=True, label="p")
    elif shape == "groupby":
        query = Query(group_by=("a",),
                      aggregates=(AggregateSpec("sum", "b"),
                                  AggregateSpec("count", "*")),
                      label="p")
    else:
        query = Query(aggregates=(AggregateSpec("min", "a"),
                                  AggregateSpec("max", "b"),
                                  AggregateSpec("sum", "b"),
                                  AggregateSpec("count", "*")),
                      label="p")
    rows = wl.rows
    digests = {}
    for mode in ("offload", placement):
        client = _bench()
        table = FTable("S", wl.schema, nrows)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        result, elapsed = client.far_view_planned(
            table, query, placement=mode,
            stats=PlanStats(selectivity=selectivity))
        assert_uniform_result(result, elapsed)
        digests[mode] = _digest(result)
    assert digests[placement] == digests["offload"]


@pytest.mark.parametrize("shape", ["groupby", "distinct", "encrypted"])
def test_groupby_hybrid_split_matches_offload(shape):
    """Every split ``k`` of a ``selection -> join -> projection ->
    groupby`` chain, of a ``regex -> selection -> projection ->
    distinct(columns)`` one and of an encrypted table's ``decrypt ->
    selection -> projection -> aggregate``: offloading the slice
    ``chain[:k]`` and running the step nodes of
    ``client_steps(chain, k)`` over what lands gives the full offload's
    bytes.  ``k = 0`` is the ship split and the list a view circuit
    compiles — the whole chain as client steps, the join an arm read
    raw, the decrypt done by the read (no client step runs it); at
    ``k = 1`` the node only decrypts."""
    from repro.baselines.cpu_model import CostBreakdown, CpuCostModel
    from repro.common.expr import Col, TextMatch
    from repro.common.records import Column, Schema
    from repro.core.planner import (client_steps, run_client_join,
                                    run_client_kernel)
    from repro.core.query import JoinSpec
    from repro.operators.encryption_op import (decrypt_table_image,
                                               encrypt_table_image)

    client = _bench()
    key, nonce = bytes(range(16)), bytes(range(12))
    if shape == "groupby":
        wl = selection_workload(512, 0.5, seed=3)
        wl.rows["c"] = np.arange(512) % 16
        dim_schema = Schema([Column("id", "int64"), Column("rate", "int64")])
        dim_rows = dim_schema.empty(12)
        dim_rows["id"], dim_rows["rate"] = np.arange(12), np.arange(12) % 5
        fact, dim = FTable("S", wl.schema, 512), FTable("dim", dim_schema, 12)
        tables = ((fact, wl.rows), (dim, dim_rows))
        query = Query(predicate=wl.predicate,
                      join=JoinSpec(dim, "id", "c", ("rate",)),
                      projection=("rate", "d"), group_by=("rate",),
                      aggregates=(AggregateSpec("sum", "d"),), label="h")
        kernels = ["selection", "join", "eval", "aggregate"]
    elif shape == "encrypted":
        wl = selection_workload(512, 0.5, seed=5)
        fact = FTable("E", wl.schema, 512, encrypted=True, key=key,
                      nonce=nonce)
        tables = ((fact, encrypt_table_image(wl.schema.to_bytes(wl.rows),
                                             key, nonce)),)
        query = Query(decrypt_input=True, predicate=wl.predicate,
                      projection=("a", "c", "d"),
                      aggregates=(AggregateSpec("min", "a"),
                                  AggregateSpec("sum", "d"),
                                  AggregateSpec("count", "*")), label="e")
        kernels = ["selection", "eval", "aggregate"]
    else:
        schema = Schema([Column("a", "int64"), Column("b", "int64"),
                         Column("s", "char", 8)])
        rows = schema.empty(512)
        rows["a"], rows["b"] = np.arange(512) % 7, np.arange(512)
        rows["s"] = [b"id%05d" % i for i in range(512)]
        fact = FTable("T", schema, 512)
        tables = ((fact, rows),)
        # The first row per ``a`` wins: deduplicating on (a, b) instead
        # would keep every row.
        query = Query(regex=TextMatch(Col("s"), "%1%"),
                      predicate=Compare("b", "<", 400),
                      projection=("a", "b"), distinct=True,
                      distinct_columns=("a",), label="d")
        kernels = ["regex", "selection", "eval", "distinct"]
    for table, table_rows in tables:
        client.alloc_table_mem(table)
        client.table_write(table, table_rows)
    chain = operator_chain(query)
    assert [op.kernel for op in client_steps(chain, 0)] == kernels
    assert client_steps(chain, 0) == chain[-len(kernels):]
    offloaded = client.far_view(fact, query)[0]
    expected = canonical_result_bytes(offloaded)
    if shape == "distinct":
        assert offloaded.num_rows == 7
    cpu = CpuCostModel()
    for k in range(len(chain) + 1):
        if k == 0:
            image = client.table_read(fact)[0]
            if fact.encrypted:
                image = decrypt_table_image(image, key, nonce)
            rows = fact.schema.from_bytes(image)
            schema = fact.schema
        else:
            head = client.sim.run_process(
                client._offload_proc(fact, chain[:k]), "slice")
            rows, schema = head.rows(), head.schema
        cost = CostBreakdown()
        for op in client_steps(chain, k):
            if op.kernel == "join":
                assert op.query is None and op.build is dim
                rows, schema = run_client_join(rows, schema, dim_rows,
                                               dim_schema, op, cpu, cost)
            else:
                rows, schema = run_client_kernel(op, rows, schema, cpu, cost)
        assert schema.to_bytes(rows) == expected, k
        assert (cost.total_ns > 0) == (k < len(chain)), k
    ship, _ = client.far_view_planned(fact, query, placement="ship")
    assert canonical_result_bytes(ship) == expected


@pytest.mark.parametrize("shape", ["selection", "distinct", "groupby"])
def test_ship_tail_bills_what_lcpu_charges(shape):
    """One client bill: a ship-placed statement's ``client_cost`` is the
    LCPU baseline over the same rows and steps, charge for charge, apart
    from the tail's zero ``merge`` (the table has no deltas)."""
    from repro.baselines.lcpu import LcpuBaseline
    from repro.core.planner import client_steps

    wl = selection_workload(2048, 0.5, seed=7)
    query = {"selection": Query(predicate=wl.predicate, label="s"),
             "distinct": select_distinct(["c"]),
             "groupby": Query(predicate=wl.predicate, group_by=("c",),
                              aggregates=(AggregateSpec("sum", "d"),),
                              label="g")}[shape]
    client = _bench()
    table = FTable("S", wl.schema, len(wl.rows))
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    shipped, _ = client.far_view_planned(table, query, placement="ship")
    rows, _, cost = LcpuBaseline(client.cpu).run(
        wl.schema, wl.rows, client_steps(operator_chain(query), 0))
    assert shipped.client_cost.parts.pop("merge") == 0.0
    assert list(shipped.client_cost.parts.items()) == list(cost.parts.items())
    assert canonical_result_bytes(shipped) == shipped.schema.to_bytes(rows)


def test_explain_plan_estimates_and_actuals():
    wl = selection_workload(4096, 0.5, seed=5)
    client = _bench()
    table = FTable("S", wl.schema, 4096)
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    result, elapsed = client.far_view_planned(
        table, Query(predicate=wl.predicate, label="e"), placement="auto",
        stats=PlanStats(selectivity=wl.actual_selectivity))
    explain = result.explain
    assert explain is not None
    assert explain.actual_ns == pytest.approx(elapsed)
    assert {c.label for c in explain.candidates} >= {"offload", "ship"}
    assert explain.placements  # one entry per chain operator
    # The estimate must be in the right ballpark of the measurement
    # (the model aims at picking the right side, not ns-exactness).
    assert explain.est_chosen_ns == pytest.approx(elapsed, rel=0.35)
    rendered = explain.render()
    assert "Placement plan" in rendered and "actual" in rendered


def test_sql_placement_hint_routes_through_planner():
    from repro.workloads.generator import make_rows

    client = _bench()
    schema, _ = projection_workload(8, 64)
    rows = make_rows(schema, 1024, seed=9)
    table = FTable("demo", schema, 1024)
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    result, _ = client.sql(
        "/*+ placement(ship) */ SELECT * FROM demo WHERE a < 100")
    assert result.explain is not None
    assert result.explain.requested == "ship"
    offload_result, _ = client.sql("SELECT * FROM demo WHERE a < 100")
    assert offload_result.explain is None  # legacy path untouched
    assert canonical_result_bytes(result) == canonical_result_bytes(
        offload_result)


def test_cluster_placement_matches_offload():
    from repro.core.api import ClusterClient
    from repro.core.cluster import FarviewCluster

    wl = selection_workload(1024, 0.5, seed=11)
    digests = {}
    for mode in ("offload", "ship", "auto"):
        sim = Simulator()
        cluster = FarviewCluster(sim, 4, SCENARIO)
        client = ClusterClient(cluster)
        client.open_connection()
        sharded = client.create_table("S", wl.schema, wl.rows)
        result, _ = client.far_view_planned(
            sharded, Query(predicate=wl.predicate, label="c"),
            placement=mode, stats=PlanStats(selectivity=0.5))
        digests[mode] = hashlib.sha256(
            canonical_result_bytes(result)).hexdigest()
        if mode != "offload":
            assert result.explain.requested == mode
    assert digests["ship"] == digests["offload"]
    assert digests["auto"] == digests["offload"]


@pytest.mark.parametrize("num_nodes", [2, 4])
def test_versioned_pool_placement_matches_offload(assert_uniform_result,
                                                  num_nodes):
    """A versioned pool table is planned by the same
    ``plan_placement(query, table, config, as_of=)`` call as everything
    else, priced at the snapshot it reads off the handle: ``ship`` and
    ``auto`` are sha256-identical to ``offload`` and to the single-node
    versioned run, at the current epoch and ``as_of`` an older one, and
    the older, smaller snapshot is the cheaper one to ship.  Degraded cell: with a shard's node
    down every placement fails typed — ``offload`` under
    ``allow_degraded`` carrying the survivors' partial, never a wrong
    complete answer."""
    from repro.common.errors import DegradedResultError, FaultError
    from repro.core.api import ClusterClient
    from repro.core.cluster import FarviewCluster

    wl = selection_workload(1024, 0.5, seed=13)
    query = Query(predicate=wl.predicate, projection=("a", "c"), label="vp")
    stats = PlanStats(selectivity=0.5)

    def load(client):
        vt = client.create_versioned_table("V", wl.schema, wl.rows[:768])
        client.update_where(vt, Compare("a", "<", 10**9), {"c": 3})
        client.insert(vt, wl.rows[768:])
        return vt

    def digest(result):
        return hashlib.sha256(canonical_result_bytes(result)).hexdigest()

    single = FarviewClient(FarviewNode(Simulator(), SCENARIO))
    single.open_connection()
    svt = load(single)
    reference = {as_of: digest(single.scan_versioned(svt, query,
                                                     as_of=as_of)[0])
                 for as_of in (None, 1)}

    cluster = FarviewCluster(Simulator(), num_nodes, SCENARIO)
    client = ClusterClient(cluster)
    client.open_connection()
    vt = load(client)
    for as_of in (None, 1):
        for mode in ("offload", "ship", "auto"):
            result, elapsed = client.scan_versioned(
                vt, query, as_of=as_of, placement=mode, stats=stats)
            assert_uniform_result(result, elapsed)
            assert digest(result) == reference[as_of], (mode, as_of)
            if mode != "offload":
                assert result.explain.requested == mode
    assert client.plan(vt, query, "ship").chosen == "ship"
    assert (client.plan(vt, query, "ship", as_of=1).est_ship_ns
            < client.plan(vt, query, "ship").est_ship_ns)

    cluster.node(1).fail()
    client.allow_degraded = True
    for mode in ("ship", "auto"):
        with pytest.raises(FaultError):
            client.scan_versioned(vt, query, placement=mode, stats=stats)
    with pytest.raises(DegradedResultError) as info:
        client.scan_versioned(vt, query)
    assert info.value.failed_shards == (1,)
    assert 0 < info.value.partial.num_rows < 1024


def test_ship_on_bare_scan_is_a_raw_read():
    """placement="ship" with no offloadable operators must read raw
    bytes, not run the (empty) offload pipeline."""
    from repro.workloads.generator import make_rows

    schema, _ = projection_workload(8, 64)
    rows = make_rows(schema, 256, seed=17)
    client = _bench()
    table = FTable("S", schema, 256)
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    result, _ = client.far_view_planned(table, Query(label="scan"),
                                        placement="ship")
    assert result.explain.chosen == "ship"
    assert result.parts == []
    assert canonical_result_bytes(result) == schema.to_bytes(rows)
    # auto/offload on the same bare scan keep the legacy offload path.
    offload_result, _ = client.far_view_planned(table, Query(label="scan"),
                                                placement="auto")
    assert offload_result.explain.chosen == "offload"
    assert canonical_result_bytes(offload_result) == schema.to_bytes(rows)


@pytest.mark.parametrize("deltas", [False, True])
def test_offloaded_sum_is_one_whole_column_sum(deltas):
    """A standalone SUM/AVG over a float column returns the same bytes
    offloaded and shipped, and both equal ``software_aggregate`` over the
    whole table, with no delta at the scanned epoch and with one (the
    table's second half arrives as an insert).  The node used to add
    one pairwise ``col.sum()`` per 16 KiB DRAM burst, so its bytes
    depended on where the bursts cut the column (8 of 10 seeds differed
    at 5,000 rows)."""
    from repro.baselines.sw_ops import software_aggregate
    from repro.common.records import Column, Schema

    schema = Schema([Column("id", "int64"), Column("x", "float64")])
    specs = (AggregateSpec("sum", "x", "s"), AggregateSpec("avg", "x", "m"))
    query = Query(aggregates=specs, label="sum")
    for seed in range(4):
        rows = schema.empty(5_000)
        rows["id"] = np.arange(5_000)
        rows["x"] = np.random.default_rng(seed).standard_normal(5_000) * 1e3
        expected = software_aggregate(rows, schema, list(specs)).tobytes()
        got = {}
        for mode in ("offload", "ship"):
            client = _bench()
            head = len(rows) // 2 if deltas else len(rows)
            table = client.create_table("V", schema, rows[:head])
            if deltas:
                client.insert(table, rows[head:])
            assert table.has_deltas(table.epoch) == deltas
            result, _ = client.far_view_planned(table, query,
                                                placement=mode)
            got[mode] = canonical_result_bytes(result)
        assert got["offload"] == got["ship"] == expected, seed


def test_software_aggregate_large_int_extremes_bit_exact():
    """min/max over int64 values beyond float53 precision must survive a
    ship execution bit-exactly (the hardware block never rounds them)."""
    from repro.common.records import Column, Schema as RSchema

    schema = RSchema([Column("a", "int64", 8), Column("b", "int64", 8)])
    rows = schema.empty(3)
    rows["a"] = [2 ** 60 + 1, 5, -7]
    rows["b"] = [1, 2, 3]
    query = Query(aggregates=(AggregateSpec("max", "a"),
                              AggregateSpec("count", "*")), label="big")
    digests = {}
    for mode in ("offload", "ship"):
        client = _bench()
        table = FTable("S", schema, 3)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        result, _ = client.far_view_planned(table, query, placement=mode)
        digests[mode] = _digest(result)
        assert result.rows()["max_a"][0] == 2 ** 60 + 1
    assert digests["ship"] == digests["offload"]


@pytest.mark.parametrize("num_nodes", [1, 2])
def test_warm_selection_region_picks_the_hybrid_split(num_nodes):
    """The hybrid route end to end: with the region warm from a
    ``select_star`` (it holds ``sel[...]``), a selective GROUP BY under
    ``auto`` offloads only the filter and groups on the client — its
    bill has the ``read`` of the landed prefix — and its bytes are the
    full offload's, on one node and on a 2-node pool."""
    from repro.core.api import ClusterClient
    from repro.core.cluster import FarviewCluster

    wl = selection_workload(16_384, 0.05, seed=3)
    wl.rows["c"] = np.arange(16_384) % 16
    if num_nodes == 1:
        client = _bench()
        table = FTable("S", wl.schema, 16_384)
        client.alloc_table_mem(table)
        client.table_write(table, wl.rows)
    else:
        client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                              SCENARIO))
        client.open_connection()
        table = client.create_table("S", wl.schema, wl.rows)
    client.far_view(table, select_star(wl.predicate))
    query = Query(predicate=wl.predicate, group_by=("c",),
                  aggregates=(AggregateSpec("sum", "d"),), label="h")
    result, elapsed = client.far_view_planned(
        table, query, placement="auto",
        stats=PlanStats(selectivity=0.05, groups=16))
    explain = result.explain
    assert (explain.chosen, explain.split) == ("hybrid", 1)
    assert explain.actual_ns == elapsed
    assert result.client_cost.parts["read"] > 0
    full, _ = client.far_view_planned(table, query, placement="offload")
    assert canonical_result_bytes(result) == canonical_result_bytes(full)


def test_cluster_hybrid_keeps_fragment_result():
    """A forced cluster ship/hybrid carries its observability payload."""
    from repro.core.api import ClusterClient
    from repro.core.cluster import FarviewCluster

    wl = selection_workload(512, 0.5, seed=19)
    sim = Simulator()
    cluster = FarviewCluster(sim, 2, SCENARIO)
    client = ClusterClient(cluster)
    client.open_connection()
    sharded = client.create_table("S", wl.schema, wl.rows)
    result, _ = client.far_view_planned(
        sharded, Query(predicate=wl.predicate, label="c"),
        placement="ship")
    assert result.bytes_shipped == 512 * wl.schema.row_width
    assert result.client_cost is not None


def test_ship_pruned_when_table_exceeds_client_buffer():
    """A raw read larger than the receive buffer cannot land: auto must
    prune the ship candidate, explicit ship must raise up front."""
    from repro.common.errors import QueryError

    schema, _ = projection_workload(8, 64)
    nrows = MB // 64  # 1 MB table
    query = Query(predicate=Compare("a", "<", 1), label="big")
    small_buffer = 256 * 1024
    plan = plan_placement(query, _table(schema, nrows), SCENARIO,
                          placement="auto",
                          stats=PlanStats(selectivity=0.1),
                          buffer_capacity=small_buffer)
    assert plan.chosen == "offload"  # ship would win but cannot fit
    assert all(c.label != "ship" for c in plan.candidates)
    with pytest.raises(QueryError):
        plan_placement(query, _table(schema, nrows), SCENARIO,
                       placement="ship", buffer_capacity=small_buffer)
    # With a big enough buffer the ship candidate returns.
    plan = plan_placement(query, _table(schema, nrows), SCENARIO,
                          placement="auto",
                          stats=PlanStats(selectivity=0.1),
                          buffer_capacity=2 * MB)
    assert plan.chosen == "ship"


def test_ship_on_encrypted_table_requires_decrypt_input():
    """Ship must enforce the compiler's encrypted-table invariant —
    never silently parse ciphertext as rows."""
    from repro.common.errors import QueryError
    from repro.operators.encryption_op import encrypt_table_image

    key, nonce = bytes(range(16)), bytes(range(12))
    wl = selection_workload(128, 0.5, seed=23)
    client = _bench()
    table = FTable("E", wl.schema, 128, encrypted=True, key=key, nonce=nonce)
    client.alloc_table_mem(table)
    client.table_write(
        table, encrypt_table_image(wl.schema.to_bytes(wl.rows), key, nonce))
    query = Query(predicate=wl.predicate, label="bad")  # no decrypt_input
    with pytest.raises(QueryError):
        client.far_view_planned(table, query, placement="ship")


def test_encrypted_table_ship_decrypts_client_side():
    from repro.operators.encryption_op import encrypt_table_image

    key, nonce = bytes(range(16)), bytes(range(12))
    wl = selection_workload(256, 0.5, seed=13)
    digests = {}
    for mode in ("offload", "ship"):
        client = _bench()
        table = FTable("S", wl.schema, 256, encrypted=True,
                       key=key, nonce=nonce)
        client.alloc_table_mem(table)
        image = encrypt_table_image(wl.schema.to_bytes(wl.rows), key, nonce)
        client.table_write(table, image)
        query = Query(predicate=wl.predicate, decrypt_input=True, label="s")
        result, _ = client.far_view_planned(table, query, placement=mode)
        digests[mode] = _digest(result)
    assert digests["ship"] == digests["offload"]


def test_decrypting_projection_never_picks_smart_addressing():
    """A projection-only query over an encrypted table scans
    sequentially under every placement: smart addressing cannot decrypt
    scattered CTR reads, so it is never *chosen* for a decrypting query.
    It used to be, for one column of a wide table, and ``compile_query``
    then refused the choice under ``far_view``, ``offload`` and even
    ``auto`` (only ``ship`` answered).  An explicit
    ``smart_addressing=True`` keeps its typed refusal."""
    from dataclasses import replace

    from repro.common.errors import PipelineCompilationError
    from repro.common.records import Column, Schema
    from repro.operators.encryption_op import encrypt_table_image

    key, nonce = bytes(range(16)), bytes(range(12))
    schema = Schema([Column(f"c{i}", "int64") for i in range(64)])
    rows = schema.empty(256)
    for i in range(64):
        rows[f"c{i}"] = np.arange(256) * (i + 1)
    client = _bench()
    table = FTable("E", schema, 256, encrypted=True, key=key, nonce=nonce)
    client.alloc_table_mem(table)
    client.table_write(
        table, encrypt_table_image(schema.to_bytes(rows), key, nonce))
    query = Query(projection=("c0",), decrypt_input=True, label="e")
    expected = np.ascontiguousarray(rows["c0"]).tobytes()
    results = [client.far_view(table, query)[0]] + [
        client.far_view_planned(table, query, placement=mode)[0]
        for mode in ("offload", "auto", "ship")]
    for result in results:
        assert canonical_result_bytes(result) == expected
    with pytest.raises(PipelineCompilationError):
        client.far_view(table, replace(query, smart_addressing=True))


# -- one refusal, one error class, whatever the route -------------------------

def _loaded_selection_client():
    client = _bench()
    workload = selection_workload(256, 0.5, seed=7)
    table = FTable("R", workload.schema, len(workload.rows))
    client.alloc_table_mem(table)
    client.table_write(table, workload.rows)
    return client, table


@pytest.mark.parametrize("placement", ["offload", "auto", "ship"])
def test_a_refused_smart_hint_is_refused_under_every_placement(placement):
    """Regression: ``ship`` compiles nothing, so it ran a query whose
    forced smart-addressing hint the node refuses and returned its rows;
    ``offload`` and ``auto`` refused it.  Every placement now refuses it
    with the node's text."""
    from repro.common.errors import PipelineCompilationError

    client, table = _loaded_selection_client()
    query = Query(predicate=Compare("a", "<", 100), projection=("a",),
                  smart_addressing=True)
    with pytest.raises(PipelineCompilationError,
                       match="^smart addressing supports projection-only "
                             "queries$"):
        client.far_view_planned(table, query, placement=placement)


@pytest.mark.parametrize("query, text", [
    (Query(predicate=Compare("nope", "<", 1)), "nope"),
    (Query(decrypt_input=True), "is not encrypted")])
def test_an_invalid_query_raises_query_error_from_every_verb(query, text):
    """Regression: an unknown column, or a decrypt of a plain table,
    raised ``PipelineCompilationError`` (an ``OperatorError``) from
    ``far_view`` and ``QueryError`` from ``far_view_planned``; a Query
    the table cannot take is a ``QueryError`` from both verbs, under
    every placement."""
    from repro.common.errors import QueryError

    client, table = _loaded_selection_client()
    with pytest.raises(QueryError, match=text):
        client.far_view(table, query)
    for placement in ("offload", "auto", "ship"):
        with pytest.raises(QueryError, match=text):
            client.far_view_planned(table, query, placement=placement)
