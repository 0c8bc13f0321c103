"""Mini TPC-H conformance: compiled SQL vs the serial reference model.

Every fig18 query class (Q1, Q1-with-HAVING, Q3, Q6) must produce
sha256-identical canonical bytes

* on a single node under placement offload / ship / auto,
* scatter-gathered over 2- and 4-node pools under all three placements,
* and against a versioned snapshot read (the FROM table rebuilt as a
  delta chain whose visible rows equal the plain table),

where "identical" is pinned against
:mod:`repro.baselines.sql_model` — a serial numpy/python re-execution
that shares none of the engine's operator, simulator, or cluster code.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.sql_model import execute_model, model_sha256
from repro.core.api import (ClusterClient, FarviewClient,
                            canonical_result_bytes)
from repro.core.cluster import FarviewCluster
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.table import FTable
from repro.experiments.fig18_minitpch import QUERIES, make_tables
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads import tpch

#: Small enough for the python model's row loops, large enough that
#: every group/join/sort sees real multiplicity.
NUM_LINEITEM, NUM_ORDERS, NUM_CUSTOMERS = 600, 120, 40

PLACEMENTS = ("offload", "ship", "auto")


@pytest.fixture(scope="module")
def tables() -> dict:
    return make_tables(NUM_LINEITEM, NUM_ORDERS, NUM_CUSTOMERS)


def sha(result) -> str:
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


def single_client(tables: dict) -> FarviewClient:
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    for name, (schema, rows) in tables.items():
        table = FTable(name, schema, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
    return client


def cluster_client(tables: dict, num_nodes: int) -> ClusterClient:
    client = ClusterClient(FarviewCluster(Simulator(), num_nodes))
    client.open_connection()
    for name, (schema, rows) in tables.items():
        client.create_table(name, schema, rows)
    return client


@pytest.mark.parametrize("label,statement", QUERIES,
                         ids=[label for label, _ in QUERIES])
def test_placements_and_pools_match_model(tables, assert_uniform_result,
                                          label, statement):
    """query x {single, cluster2, cluster4} x {offload, ship, auto}."""
    expected = model_sha256(statement, tables)
    got = {}
    client = single_client(tables)
    for placement in PLACEMENTS:
        result, elapsed = client.sql(statement, placement=placement)
        assert_uniform_result(result, elapsed)
        got[f"single/{placement}"] = sha(result)
    for num_nodes in (2, 4):
        cc = cluster_client(tables, num_nodes)
        for placement in PLACEMENTS:
            result, elapsed = cc.sql(statement, placement=placement)
            assert_uniform_result(result, elapsed)
            got[f"cluster{num_nodes}/{placement}"] = sha(result)
    mismatches = {k: v for k, v in got.items() if v != expected}
    assert not mismatches, (
        f"{label} diverged from the serial model {expected}: {mismatches}")


#: Partitioned-catalog cells: lineitem and orders hash-partitioned on
#: the Q3 join key (so the compiled multi-join goes co-located at the
#: scatter layer), customer chunk-partitioned (its filtered build stays
#: a client arm).  Every query's ORDER BY / single-row aggregate output
#: is placement- and partitioning-invariant by construction.
PARTITION_SPECS = {
    "lineitem": PartitionSpec("hash", key="orderkey"),
    "orders": PartitionSpec("hash", key="orderkey"),
    "customer": PartitionSpec(),
}


def partitioned_cluster(tables: dict, num_nodes: int) -> ClusterClient:
    client = ClusterClient(FarviewCluster(Simulator(), num_nodes))
    client.open_connection()
    for name, (schema, rows) in tables.items():
        client.create_table(name, schema, rows,
                            partition=PARTITION_SPECS[name])
    return client


@pytest.mark.parametrize("label,statement", QUERIES,
                         ids=[label for label, _ in QUERIES])
def test_partitioned_pools_match_model(tables, assert_uniform_result, label,
                                       statement):
    """query x {cluster2, cluster4 hash-partitioned} x placements: the
    compiled SQL path must exercise the partitioned join strategies and
    still match the serial model byte for byte."""
    expected = model_sha256(statement, tables)
    for num_nodes in (2, 4):
        cc = partitioned_cluster(tables, num_nodes)
        for placement in PLACEMENTS:
            result, elapsed = cc.sql(statement, placement=placement)
            assert_uniform_result(result, elapsed)
            assert sha(result) == expected, (
                f"{label} under {placement} on {num_nodes} hash-"
                f"partitioned nodes diverged from the serial model")
        # Both join sides are hash-partitioned on the join key: the
        # offloaded join runs co-located, so nothing was broadcast or
        # shuffled across the pool.
        assert cc.replica_bytes_moved == 0, (
            f"{label} moved build bytes despite co-located partitioning")


def test_q3_stage0_join_reports_colocated(tables):
    """The compiled Q3 head Query's node must record the co-located
    strategy when lineitem and orders share the hash map — and the
    record names every arm and client step after the head."""
    cc = partitioned_cluster(tables, 4)
    result, elapsed = cc.sql(tpch.q3_sql(), placement="offload")
    record = result.explain
    assert record.join_strategy == "colocated", record.render()
    assert record.chosen == "offload" and record.actual_ns == elapsed
    assert "join" in record.chain[:record.split]
    steps = [step for step, _arm in record.tail]
    assert steps[0] == "join(customer)" and steps[-2:] == ["sort", "limit"]
    # The filtered customer build is an arm with its own Query's node.
    assert record.tail[0][1].chain == ["selection", "projection"]


#: A head-only statement; its ORDER BY twin adds an ``eval`` and a
#: ``sort`` client step after the same head.
FILTERED_SCAN = "SELECT orderkey, quantity FROM lineitem WHERE quantity < 10"

#: A sort-only client tail, and Q3's shape: a filtered customer build
#: landed as an arm Query beside the head.
ONE_BILL = (("sort-tail", FILTERED_SCAN + " ORDER BY orderkey"),
            ("Q3", tpch.q3_sql()))


def pool(tables: dict, num_nodes: int):
    return (single_client(tables) if num_nodes == 1
            else cluster_client(tables, num_nodes))


def setup_charged(result) -> float:
    """The ``setup`` billed by ``result`` and every sub-result it holds."""
    own = result.client_cost.parts.get("setup", 0.0) \
        if result.client_cost is not None else 0.0
    return own + sum(setup_charged(part) for part in result.parts)


@pytest.mark.parametrize("label,statement", ONE_BILL,
                         ids=[label for label, _ in ONE_BILL])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("num_nodes", (1, 2))
def test_a_statement_pays_one_setup(tables, num_nodes, placement, label,
                                    statement):
    """The paper times a query until its results are written to client
    memory (§6.2): one statement, one bill.  However its head and arms
    were placed, the setup over the result and all its parts is charged
    once."""
    client = pool(tables, num_nodes)
    result, _ = client.sql(statement, placement=placement)
    assert setup_charged(result) == client.cpu.setup_ns()


@pytest.mark.parametrize("num_nodes", (1, 2))
def test_order_by_adds_only_its_own_steps_under_ship(tables, num_nodes):
    """Adding ORDER BY to a shipped statement adds its ``eval`` and
    ``sort`` steps to the one bill — no second setup, no second result
    write."""
    runs = [pool(tables, num_nodes).sql(text, placement="ship")
            for text in (FILTERED_SCAN, FILTERED_SCAN + " ORDER BY orderkey")]
    (plain, plain_ns), (ordered, ordered_ns) = runs
    assert [step for step, _arm in ordered.explain.tail] == ["eval", "sort"]
    before, after = plain.client_cost.parts, ordered.client_cost.parts
    own = after["sort"] + after["project"] - before["project"]
    assert ordered_ns - plain_ns == pytest.approx(own, rel=0, abs=1e-6)


def test_a_statement_reports_its_own_time(tables):
    """An unrelated process pending on the simulator is not part of a
    statement: with a 1 ms timer registered before each deployed
    statement, every statement x placement reports the
    ``response_time_ns`` and ``explain.actual_ns`` it reports on an idle
    simulator."""
    idle, busy = cluster_client(tables, 2), cluster_client(tables, 2)

    def timer():
        yield busy.sim.timeout(1_000_000.0)

    def timing(result):
        return (result.response_time_ns,
                None if result.explain is None else result.explain.actual_ns)

    for label, statement in QUERIES:
        for placement in PLACEMENTS:
            for client in (idle, busy):
                client.sql(statement, placement=placement)   # deploy
            # Same start instant on both clocks: the same float sums.
            idle.sim.run(until=busy.sim.now)
            quiet, _ = idle.sql(statement, placement=placement)
            busy.sim.process(timer())
            loaded, _ = busy.sql(statement, placement=placement)
            assert timing(loaded) == timing(quiet), (label, placement)


@pytest.mark.parametrize("num_clients", (1, 3))
def test_statements_compose(tables, num_clients):
    """A statement is a process: offload, ship and auto streams of every
    fig18 statement run concurrently on one 4-node pool — from one
    client, or from three, each with its own copy of the tables
    (protection domains are per connection, §4.4) — and every result is
    the serial model's."""
    sim = Simulator()
    cluster = FarviewCluster(sim, 4)
    clients = []
    for _ in range(num_clients):
        client = ClusterClient(cluster)
        client.open_connection()
        for name, (schema, rows) in tables.items():
            client.create_table(name, schema, rows)
        clients.append(client)
    got = []

    def stream(client, placement):
        for _label, statement in QUERIES:
            result = yield from client.sql_proc(statement,
                                                placement=placement)
            got.append((statement, sha(result)))

    procs = [sim.process(stream(clients[i % num_clients], placement))
             for i, placement in enumerate(PLACEMENTS)]
    sim.run()
    for proc in procs:
        assert proc.triggered
        if not proc.ok:
            raise proc.value
    assert len(got) == len(QUERIES) * len(PLACEMENTS)
    expected = {statement: model_sha256(statement, tables)
                for _label, statement in QUERIES}
    for statement, digest in got:
        assert digest == expected[statement], statement


@pytest.mark.parametrize("label,statement", QUERIES,
                         ids=[label for label, _ in QUERIES])
def test_versioned_snapshot_read_matches_model(tables, label, statement):
    """The FROM table rebuilt as a version chain (head + insert + a
    no-op update epoch) must scan to the same bytes as the plain table."""
    expected = model_sha256(statement, tables)
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    for name, (schema, rows) in tables.items():
        if name == "lineitem":
            head = len(rows) // 2
            vt = client.create_versioned_table(name, schema, rows[:head])
            client.insert(vt, rows[head:])
            client.update_where(vt, Compare("orderkey", "<", -1),
                                {"quantity": 0})          # no-op epoch
        else:
            table = FTable(name, schema, len(rows))
            client.alloc_table_mem(table)
            client.table_write(table, rows)
    for placement in PLACEMENTS:
        result, _ = client.sql(statement, placement=placement)
        assert sha(result) == expected, (
            f"{label} versioned scan under {placement} diverged from "
            f"the serial model")


def test_model_row_counts_are_sensible(tables):
    """Sanity on the oracle itself: the workload exercises real
    multiplicity (groups collapse rows, Q3's top-k truncates, Q6's band
    selects a narrow slice)."""
    _, q1 = execute_model(tpch.q1_sql(), tables)
    assert 2 <= len(q1) <= 9                   # 3x3 flag/status groups
    _, q3 = execute_model(tpch.q3_sql(), tables)
    assert 1 <= len(q3) <= 10                  # LIMIT 10 caps the top-k
    _, q6 = execute_model(tpch.q6_sql(), tables)
    assert len(q6) == 1                        # single aggregate row
    schema, having = execute_model(tpch.q1_having_sql(), tables)
    assert len(having) <= len(q1)
    assert "count_order" in schema.names
