#!/usr/bin/env python
"""Perf harness: wall-clock / event-count trajectory for the simulator.

Times figure-style workloads end to end (simulated node + client, real byte
movement) and records:

* ``wall_s``        — host wall-clock seconds for the measured query phase
                      (best of ``--repeat`` runs; setup/upload excluded),
* ``sim_ns``        — simulated nanoseconds of the measured phase (must be
                      invariant under pure-performance refactors),
* ``events``        — simulator callbacks executed during the phase,
* ``sha256``        — digest of the result bytes landed in the client
                      buffer(s) (byte-exactness guard),
* ``mb_per_s``      — processed table MB per host wall-clock second.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full run
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke    # quick sanity
    PYTHONPATH=src python benchmarks/bench_perf.py --json out.json

The committed ``BENCH_perf.json`` is the measured trajectory for this repo;
``baseline_wall_s`` values were recorded at the pre-optimization seed commit
on the same machine and are kept so every future PR reports a cumulative
speedup.  A speedup < 1.0 against the stored baseline is a regression.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.units import MB
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import Query, select_distinct, select_star
from repro.core.table import FTable
from repro.sim.engine import Simulator
from repro.workloads.generator import (distinct_workload, projection_workload,
                                       selection_workload)

KB = 1024

#: Wall-clock seconds measured at the pre-optimization seed commit
#: (ffa8788, "v0 seed"); the denominator of the reported speedups.
BASELINE_WALL_S: dict[str, float] = {
    "fig6_read": 0.0766,
    "fig7_smart": 0.0190,
    "fig8_selection": 0.0133,
    "fig12_multiclient": 0.2648,
    # fig13 first appeared with the cluster layer (PR 2); its baseline is
    # the first measurement on the reference machine, so its speedup
    # starts at 1.0x and tracks subsequent PRs.
    "fig13_scaleout": 0.1339,
    # fig14 first appeared with the placement planner (PR 3); same
    # first-measurement convention.
    "fig14_pushdown": 0.0357,
    # fig15 first appeared with the versioned write path (PR 4); same
    # first-measurement convention.
    "fig15_updates": 0.1115,
    # fig16 first appeared with end-to-end joins (PR 5); same
    # first-measurement convention.
    "fig16_joins": 0.0647,
    # fig18 first appeared with the SQL compiler (PR 7); same
    # first-measurement convention.
    "fig18_minitpch": 0.3084,
    # fig19 first appeared with partition-aware joins (PR 8); same
    # first-measurement convention.
    "fig19_shuffle": 1.1323,
    # fig20 first appeared with incremental materialized views (PR 9);
    # same first-measurement convention.
    "fig20_views": 0.2950,
    # fig21 first appeared with the tenant serving layer (PR 10); same
    # first-measurement convention.
    "fig21_serving": 0.0746,
}

#: Simulated nanoseconds at the seed commit for the same workloads.  These
#: are *invariants*: a pure-performance refactor must reproduce them
#: exactly (pre/post comparison is how this harness proves timing
#: semantics were preserved).
BASELINE_SIM_NS: dict[str, float] = {
    "fig6_read": 365069.25234547275,
    "fig7_smart": 284394.6567901261,
    "fig8_selection": 69528.13234568108,
    "fig12_multiclient": 198112.95407458395,
    "fig13_scaleout": 52477.39851864427,
    "fig14_pushdown": 885469.9437036433,
    # A compacted base pays its own cold TLB misses as it streams (the
    # delta merge no longer pre-translates it untimed): +36.67 ns.
    "fig15_updates": 506198.41679082345,
    "fig16_joins": 594298.7022225005,
    "fig18_minitpch": 21081179.9340407,
    "fig19_shuffle": 12098753.244444625,
    "fig20_views": 1026246.4424691297,
    "fig21_serving": 4014954.909664512,
}

#: Pinned expectations for the ``--check`` gate: the SMOKE-size runs are
#: fully deterministic (simulated time and result bytes depend only on
#: the simulation, not the host), so CI can verify them exactly without
#: re-measuring wall-clock baselines.  A PR that changes these values is
#: changing timing semantics or result bytes and must update them — and
#: say why in CHANGES.md — rather than silently rewriting BENCH_perf.json.
SMOKE_BASELINE_SIM_NS: dict[str, float] = {
    "fig6_read": 25920.45234567894,
    "fig7_smart": 12552.718024689239,
    "fig8_selection": 8186.692345677875,
    "fig12_multiclient": 16068.509629659355,
    "fig13_scaleout": 10000.361481495202,
    "fig14_pushdown": 318579.70370370464,
    "fig15_updates": 41428.82864195667,
    "fig16_joins": 367966.41580253653,
    "fig18_minitpch": 20460032.33744394,
    "fig19_shuffle": 12034620.086913591,
    "fig20_views": 262656.87012345716,
    "fig21_serving": 4023463.3341900907,
}

#: Simulator callbacks each SMOKE run executes, compared exactly: a
#: perf-only change may move them only on purpose (a change to the data
#: plane's callbacks), and then says so beside the new pin.  A DRAM
#: burst's consumer and next fetch, and the waiter of a credit wait a
#: train ends, run inside the callback that hands them off when nothing
#: else is due then (fig6_read 101 -> 53, fig16_joins 185 -> 140).
SMOKE_BASELINE_EVENTS: dict[str, int] = {
    "fig6_read": 53,
    "fig7_smart": 8,
    "fig8_selection": 20,
    "fig12_multiclient": 125,
    "fig13_scaleout": 264,
    "fig14_pushdown": 59,
    "fig15_updates": 193,
    "fig16_joins": 140,
    "fig18_minitpch": 697,
    "fig19_shuffle": 471,
    "fig20_views": 353,
    "fig21_serving": 720,
}

SMOKE_BASELINE_SHA256: dict[str, str] = {
    "fig6_read":
        "a20d5fce424d457a18592f07ac2e3ae1ebf10af4c465981152e226ec12ed21a9",
    "fig7_smart":
        "f6a94c52ab212d3a64f09207835b52e5c950e07f562bc723482fc2a5a213958a",
    "fig8_selection":
        "e54bcfa39cba834b73d641c9af77660a38da69baed143c132dee11f64dab5153",
    "fig12_multiclient":
        "07aed9be89c39c48d19dc136da04f84a2a4363f0fea2dc65c8b9ee45c107d4b3",
    "fig13_scaleout":
        "07aed9be89c39c48d19dc136da04f84a2a4363f0fea2dc65c8b9ee45c107d4b3",
    "fig14_pushdown":
        "20e45b49a25a4712126e76a1722921ae4424772cea5969b1644b9c4f7393bc0d",
    "fig15_updates":
        "5d47718a640b4ca9f901fab0aa143c9a3bd4714bf5fb6ab11783c2ac98d1d721",
    "fig16_joins":
        "2733ae049451805796db2e74753a169d14e1fa099bdd8fa913e939df1b40bd9b",
    "fig18_minitpch":
        "b8da4d18be479d97c94cff4477226501bbabc64aec141a004513f5a3355b961e",
    "fig19_shuffle":
        "9471431a2046a1fe0a0dd8bb5cb4965fe6e29ea574e1727e4cd1e089d7c7e282",
    "fig20_views":
        "1d166d1e75ac45349a9e2fb1e40739f955b6339a21a41b07cc4bee5842756a48",
    "fig21_serving":
        "0e4c079e03c790b5d65cae0b39d0a10999558f4d47a29a3e2a1f6608d3ee0165",
}


def _bench_config() -> FarviewConfig:
    """Experiment-style config sized for the largest bench tables."""
    return FarviewConfig(memory=MemoryConfig(channels=2,
                                             channel_capacity=64 * MB))


def _events(sim: Simulator) -> int:
    """Callbacks executed so far (0 on engines without the counter)."""
    return getattr(sim, "events_processed", 0)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# -- workloads ----------------------------------------------------------------

def run_fig6_read(table_mb: float, fault_plan=None):
    """Raw RDMA READ of one table: pure data-plane streaming (fig 6).

    ``fault_plan`` (a :class:`repro.core.faults.FaultPlan`) installs the
    fault-injection layer before the measured read — an *empty* plan
    must leave ``sim_ns``/``sha256`` bit-for-bit identical to no
    injector at all (the determinism contract ``--check`` enforces).
    """
    from repro.common.records import default_schema
    from repro.workloads.generator import make_rows

    sim = Simulator()
    node = FarviewNode(sim, _bench_config())
    if fault_plan is not None:
        from repro.core.faults import FaultInjector
        FaultInjector(node, fault_plan).install()
    client = FarviewClient(node, buffer_capacity=int(table_mb * MB) + KB)
    client.open_connection()
    schema = default_schema()
    nrows = int(table_mb * MB) // schema.row_width
    rows = make_rows(schema, nrows, seed=6)
    table = FTable("T6", schema, nrows)
    client.alloc_table_mem(table)
    client.table_write(table, rows)

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    data, _elapsed = client.table_read(table)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(data),
        "table_bytes": nrows * schema.row_width,
    }


def run_fig7_smart(num_tuples: int):
    """Smart-addressing projection over 512 B tuples (fig 7)."""
    sim = Simulator()
    node = FarviewNode(sim, _bench_config())
    client = FarviewClient(node)
    client.open_connection()
    schema, rows = projection_workload(num_tuples, 512, seed=7)
    table = FTable("T7", schema, num_tuples)
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    names = list(schema.names[:3])
    query = Query(projection=tuple(names), smart_addressing=True,
                  label="bench-sa")
    client.far_view(table, query)  # deploy (reconfiguration excluded)

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    result, _elapsed = client.far_view(table, query)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(result.data),
        "table_bytes": num_tuples * schema.row_width,
    }


def run_fig8_selection(table_kb: int):
    """Standard selection at 50% selectivity (fig 8)."""
    sim = Simulator()
    node = FarviewNode(sim, _bench_config())
    client = FarviewClient(node)
    client.open_connection()
    wl = selection_workload(table_kb * KB // 64, selectivity=0.5, seed=8)
    table = FTable("T8", wl.schema, len(wl.rows))
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    query = select_star(wl.predicate)
    client.far_view(table, query)  # deploy

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    result, _elapsed = client.far_view(table, query)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(result.data),
        "table_bytes": len(wl.rows) * wl.schema.row_width,
    }


def run_fig12_multiclient(table_kb: int, num_clients: int = 6):
    """Six concurrent DISTINCT clients sharing DRAM + downlink (fig 12)."""
    sim = Simulator()
    node = FarviewNode(sim, _bench_config())
    clients, tables = [], []
    nrows = table_kb * KB // 64
    for i in range(num_clients):
        client = FarviewClient(node)
        client.open_connection()
        schema, rows = distinct_workload(nrows, min(64, nrows), seed=i)
        table = FTable(f"T12_{i}", schema, nrows)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        clients.append(client)
        tables.append(table)
    query = select_distinct(["a"])
    for client, table in zip(clients, tables):
        client.far_view(table, query)  # deploy all pipelines first

    results = {}

    def run_one(client, table, tag):
        result = yield from client.far_view_proc(table, query)
        results[tag] = result

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    procs = [sim.process(run_one(c, t, i))
             for i, (c, t) in enumerate(zip(clients, tables))]
    sim.run()
    wall = time.perf_counter() - t0
    assert all(p.triggered for p in procs)
    digest = _digest(*(results[i].data for i in range(num_clients)))
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": digest,
        "table_bytes": num_clients * nrows * 64,
    }


def run_fig13_scaleout(table_kb: int, num_nodes: int = 4,
                       num_clients: int = 6):
    """Six clients scatter-gather DISTINCT over an N-node pool (fig 13).

    Each client's table is chunk-partitioned across all nodes; the digest
    covers the *merged* canonical result bytes, which the cluster tests
    pin byte-identical to single-node execution.
    """
    from repro.core.api import ClusterClient
    from repro.core.cluster import FarviewCluster

    sim = Simulator()
    cluster = FarviewCluster(sim, num_nodes, _bench_config())
    clients, tables = [], []
    nrows = table_kb * KB // 64
    for i in range(num_clients):
        client = ClusterClient(cluster)
        client.open_connection()
        schema, rows = distinct_workload(nrows, min(64, nrows), seed=i)
        tables.append(client.create_table(f"T13_{i}", schema, rows))
        clients.append(client)
    query = select_distinct(["a"])
    for client, table in zip(clients, tables):
        client.far_view(table, query)  # deploy all shard pipelines first

    results = {}

    def run_one(client, table, tag):
        result = yield from client.far_view_proc(table, query)
        results[tag] = result

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    procs = [sim.process(run_one(c, t, i))
             for i, (c, t) in enumerate(zip(clients, tables))]
    sim.run()
    wall = time.perf_counter() - t0
    assert all(p.triggered for p in procs)
    digest = _digest(*(results[i].data for i in range(num_clients)))
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": digest,
        "table_bytes": num_clients * nrows * 64,
        "nodes": num_nodes,
    }


def run_fig14_pushdown(table_kb: int):
    """Cost-based placement: offload vs ship vs auto on one cold point.

    One mid-sweep point of the fig14 scenario (64 B tuples, 50%
    selectivity, cold small regions): each strategy gets its own node on
    a shared simulator, and the measured phase runs the three placements
    back to back.  The digest covers the canonical result bytes of all
    three — the planner's exactness contract — and ``auto`` must land
    within 10% of the better pure strategy.
    """
    from repro.core.api import canonical_result_bytes
    from repro.core.cost_model import PlanStats
    from repro.experiments.fig14_pushdown import scenario_config
    from repro.operators.selection import Compare
    from repro.workloads.generator import projection_workload

    width = 64
    num_tuples = table_kb * KB // width
    schema, rows = projection_workload(num_tuples, width, seed=14)
    cutoff = 2 ** 30  # ~50% of make_rows' uniform [0, 2^31) int column
    query = Query(predicate=Compare("a", "<", cutoff), label="bench-fig14")
    stats = PlanStats(selectivity=float((rows["a"] < cutoff).mean()))

    sim = Simulator()
    config = scenario_config()
    clients, tables = [], []
    for strategy in ("offload", "ship", "auto"):
        node = FarviewNode(sim, config)
        client = FarviewClient(node, buffer_capacity=table_kb * KB + 64 * KB)
        client.open_connection()
        table = FTable(f"T14_{strategy}", schema, num_tuples)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        clients.append(client)
        tables.append(table)

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    elapsed, digests = {}, []
    for strategy, client, table in zip(("offload", "ship", "auto"),
                                       clients, tables):
        result, t_ns = client.far_view_planned(table, query,
                                               placement=strategy,
                                               stats=stats)
        elapsed[strategy] = t_ns
        digests.append(canonical_result_bytes(result))
    wall = time.perf_counter() - t0
    assert digests[1] == digests[0] and digests[2] == digests[0]
    auto_within = (elapsed["auto"]
                   <= 1.10 * min(elapsed["offload"], elapsed["ship"]))
    assert auto_within, f"auto planner off the min: {elapsed}"
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(*digests),
        "table_bytes": 3 * num_tuples * width,
        "auto_within_10pct": auto_within,
    }


def run_fig15_updates(table_kb: int):
    """Versioned write path: scan-under-update + compaction (fig 15).

    One versioned table accumulates four update deltas; the measured
    phase runs a warm delta-merge scan, a scan with a writer committing
    concurrently (snapshot isolation asserted against a quiesced replay
    at the pinned epoch), the compaction pass, and a post-compaction
    scan.  The digest covers all four result images — the chain scan and
    the post-compaction scan must be byte-identical.
    """
    import numpy as np

    from repro.common.records import default_schema
    from repro.operators.selection import And, Compare
    from repro.workloads.generator import make_rows

    sim = Simulator()
    node = FarviewNode(sim, _bench_config())
    client = FarviewClient(node)
    client.open_connection()
    schema = default_schema()
    nrows = table_kb * KB // schema.row_width
    rows = make_rows(schema, nrows, seed=15)
    rows["a"] = np.arange(nrows)
    vt = client.create_table("T15", schema, rows)
    query = Query(predicate=Compare("a", "<", nrows // 2), label="bench-15")
    per_batch = nrows // 8
    for b in range(4):
        client.update_where(
            vt, And(Compare("a", ">=", b * per_batch),
                    Compare("a", "<", (b + 1) * per_batch)),
            {"c": 9000 + b})
    client.far_view(vt, query)  # deploy (reconfiguration excluded)

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    chain_result, _ = client.far_view(vt, query)

    under_update = {}

    def reader():
        under_update["epoch"] = vt.epoch
        result = yield from client.far_view_planned_proc(
            vt, query, "offload", as_of=vt.epoch)
        under_update["result"] = result

    def writer():
        yield from client.update_where_proc(
            vt, Compare("a", "<", nrows // 4), {"d": 777})

    procs = [sim.process(reader()), sim.process(writer())]
    sim.run()
    assert all(p.triggered for p in procs)
    replay, _ = client.far_view_planned(vt, query, "offload",
                                        as_of=under_update["epoch"])
    assert replay.data == under_update["result"].data, \
        "scan under update diverged from its pinned epoch"
    client.compact(vt)
    compacted_result, _ = client.far_view(vt, query)
    wall = time.perf_counter() - t0
    # The concurrent writer committed between the chain scan and the
    # compaction, so the post-compaction scan reflects the newer epoch;
    # the snapshot guarantee is chain scan == pinned-epoch replay.
    assert chain_result.data == replay.data
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(chain_result.data, under_update["result"].data,
                          replay.data, compacted_result.data),
        "table_bytes": nrows * schema.row_width,
    }


def run_fig16_joins(table_kb: int):
    """End-to-end joins: placement trio + 2-node broadcast join (fig 16).

    The measured phase runs ``fact JOIN dim`` under all three placements
    on cold small regions (one node per strategy, shared simulator) and
    then a warm broadcast join over a 2-node pool (deploy + broadcast
    excluded, like every other warm workload).  The digest covers the
    canonical result bytes of all four executions — the single-node
    placements and the cluster merge must all be byte-identical, and
    ``auto`` must land within 10% of the better pure strategy.
    """
    from repro.core.api import (ClusterClient, FarviewClient,
                                canonical_result_bytes)
    from repro.core.cluster import FarviewCluster
    from repro.core.cost_model import PlanStats
    from repro.experiments.fig14_pushdown import scenario_config
    from repro.experiments.fig16_joins import (DIM_SCHEMA, join_query,
                                               make_dim, make_fact)

    build_rows = max(64, table_kb // 2)
    schema, fact = make_fact(table_kb * KB // 64, key_range=build_rows)
    dim = make_dim(build_rows)
    stats = PlanStats(join_match_ratio=1.0)
    buffer_capacity = 2 * table_kb * KB + 64 * KB

    sim = Simulator()
    config = scenario_config()
    clients, tables = [], []
    for strategy in ("offload", "ship", "auto"):
        node = FarviewNode(sim, config)
        client = FarviewClient(node, buffer_capacity=buffer_capacity)
        client.open_connection()
        dim_table = FTable(f"dim_{strategy}", DIM_SCHEMA, len(dim))
        client.alloc_table_mem(dim_table)
        client.table_write(dim_table, dim)
        fact_table = FTable(f"fact_{strategy}", schema, len(fact))
        client.alloc_table_mem(fact_table)
        client.table_write(fact_table, fact)
        clients.append(client)
        tables.append((fact_table, dim_table))

    cluster_client = ClusterClient(FarviewCluster(sim, 2, _bench_config()))
    cluster_client.open_connection()
    dim_sharded = cluster_client.create_table("dim", DIM_SCHEMA, dim)
    fact_sharded = cluster_client.create_table("fact", schema, fact)
    cluster_query = join_query(dim_sharded)
    cluster_client.far_view(fact_sharded, cluster_query)  # deploy+broadcast

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    elapsed, digests = {}, []
    for strategy, client, (fact_table, dim_table) in zip(
            ("offload", "ship", "auto"), clients, tables):
        result, t_ns = client.far_view_planned(
            fact_table, join_query(dim_table), placement=strategy,
            stats=stats)
        elapsed[strategy] = t_ns
        digests.append(canonical_result_bytes(result))
    cluster_result, _ = cluster_client.far_view(fact_sharded, cluster_query)
    digests.append(cluster_result.data)
    wall = time.perf_counter() - t0
    assert all(d == digests[0] for d in digests[1:]), \
        "join result bytes diverged across placements/pool"
    auto_within = (elapsed["auto"]
                   <= 1.10 * min(elapsed["offload"], elapsed["ship"]))
    assert auto_within, f"auto planner off the min: {elapsed}"
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(*digests),
        "table_bytes": 4 * len(fact) * schema.row_width,
        "auto_within_10pct": auto_within,
    }


def run_fig18_minitpch(num_lineitem: int, num_nodes: int = 4):
    """Mini TPC-H through the SQL compiler (fig 18).

    The measured phase runs every fig18 query class (Q1, Q1-HAVING,
    Q3, Q6) as SQL text under all three placements on an
    ``num_nodes``-node pool — tokenizer, IR, binder, lowered DAG,
    scatter-gather, client merge kernels.  The digest covers the
    canonical result bytes of every (query, placement) cell, and each
    cell is asserted sha256-identical to the serial
    :mod:`repro.baselines.sql_model` re-execution (computed outside the
    measured phase).
    """
    from repro.baselines.sql_model import model_sha256
    from repro.core.api import ClusterClient, canonical_result_bytes
    from repro.core.cluster import FarviewCluster
    from repro.experiments.fig18_minitpch import QUERIES, make_tables

    num_orders = max(16, num_lineitem // 5)
    num_customers = max(8, num_orders // 3)
    tables = make_tables(num_lineitem, num_orders, num_customers)
    expected = {label: model_sha256(stmt, tables)
                for label, stmt in QUERIES}

    sim = Simulator()
    strategies = ("offload", "ship", "auto")
    clients = {}
    for strategy in strategies:
        client = ClusterClient(FarviewCluster(sim, num_nodes,
                                              _bench_config()))
        client.open_connection()
        for name, (schema, rows) in tables.items():
            client.create_table(name, schema, rows)
        clients[strategy] = client
    for _label, stmt in QUERIES:                  # deploy pass (cold)
        for strategy in strategies:
            clients[strategy].sql(stmt, placement=strategy)

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    chunks = []
    for label, stmt in QUERIES:
        for strategy in strategies:
            result, _elapsed = clients[strategy].sql(stmt,
                                                     placement=strategy)
            image = canonical_result_bytes(result)
            assert _digest(image) == expected[label], (
                f"{label} under {strategy} diverged from the serial "
                f"model")
            chunks.append(image)
    wall = time.perf_counter() - t0
    table_bytes = sum(len(rows) * schema.row_width
                      for schema, rows in tables.values())
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(*chunks),
        "table_bytes": len(strategies) * len(QUERIES) * table_bytes,
        "nodes": num_nodes,
    }


def run_fig19_shuffle(table_kb: int, num_nodes: int = 4):
    """Partition-aware joins: broadcast vs shuffle vs co-located (fig 19).

    Three cold clusters share one simulator; each holds the same fact
    table hash-partitioned on the join key with k=2 ring replicas.  The
    measured phase runs ``fact JOIN build`` under a forced broadcast, a
    forced repartition shuffle, and — with the build hash-partitioned on
    the same key — the auto planner's co-located strategy, each cell
    paying its cold build movement and pipeline deploy.  The digest
    covers the canonical (seq-sorted) result bytes of all three cells,
    every cell asserted sha256-identical to the serial model; the
    co-located cell must move zero replica bytes and the shuffle must
    put fewer build bytes on the wire than the broadcast.
    """
    from repro.core.api import ClusterClient
    from repro.core.cluster import FarviewCluster
    from repro.core.partition import PartitionSpec
    from repro.experiments.fig19_shuffle import (DIM_SCHEMA, FACT_SCHEMA,
                                                 JOINED_SCHEMA,
                                                 canonical_sha, join_query,
                                                 make_dim, make_fact,
                                                 serial_model)

    fact_rows = table_kb * KB // FACT_SCHEMA.row_width
    build_rows = max(64, fact_rows // 4)
    fact = make_fact(fact_rows, key_range=build_rows)
    dim = make_dim(build_rows)
    expected = canonical_sha(JOINED_SCHEMA, serial_model(fact, dim))
    fact_spec = PartitionSpec("hash", key="key", replicas=2)

    sim = Simulator()
    cells = []
    for strategy, dim_spec in (
            ("broadcast", PartitionSpec(replicas=1)),
            ("shuffle", PartitionSpec(replicas=1)),
            (None, PartitionSpec("hash", key="id", replicas=1))):
        client = ClusterClient(FarviewCluster(sim, num_nodes,
                                              _bench_config()))
        client.open_connection()
        dim_sharded = client.create_table("dim", DIM_SCHEMA, dim,
                                          partition=dim_spec)
        fact_sharded = client.create_table("fact", FACT_SCHEMA, fact,
                                           partition=fact_spec)
        cells.append((strategy, client, fact_sharded, dim_sharded))

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    chunks, moved = [], {}
    for strategy, client, fact_sharded, dim_sharded in cells:
        result, _elapsed = client.far_view(fact_sharded,
                                           join_query(dim_sharded),
                                           join_strategy=strategy)
        label = strategy or result.join_strategy
        assert canonical_sha(result.schema, result.rows()) == expected, \
            f"{label} join diverged from the serial model"
        moved[label] = client.replica_bytes_moved
        rows = result.rows()
        chunks.append(result.schema.to_bytes(
            rows[rows["seq"].argsort(kind="stable")]))
    wall = time.perf_counter() - t0
    assert "colocated" in moved, "hash x hash cell did not co-locate"
    assert moved["colocated"] == 0, "co-located join moved replica bytes"
    assert moved["shuffle"] < moved["broadcast"], \
        f"shuffle moved no fewer build bytes than broadcast: {moved}"
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(*chunks),
        "table_bytes": len(cells) * fact_rows * FACT_SCHEMA.row_width,
        "nodes": num_nodes,
    }


def run_fig20_views(table_kb: int, rounds: int = 4):
    """Incremental materialized views under a mixed commit stream (fig 20).

    A versioned table carries an auto-subscribed GROUP BY view; the
    measured phase commits ``rounds`` mixed rounds (insert batch,
    predicate update, predicate delete) with a compaction mid-stream.
    Every commit propagates through the Z-set circuit and pushes an
    incremental update to the subscriber.  The digest covers the view's
    canonical materialization after every round, and the final image is
    asserted sha256-identical to the serial sql_model rescan at the same
    epoch (subscriber included, plus its O(1) digest).
    """
    from repro.experiments.fig20_views import (BASE_SCHEMA, VIEW_SQL,
                                               make_base, model_sha)
    from repro.operators.selection import Compare

    sim = Simulator()
    node = FarviewNode(sim, _bench_config())
    client = FarviewClient(node)
    client.open_connection()
    nrows = table_kb * KB // BASE_SCHEMA.row_width
    vt = client.create_table("t", BASE_SCHEMA, make_base(nrows))
    view, _ = client.create_view(VIEW_SQL, name="bench20")
    sub = client.subscribe(view)          # auto: every commit pushes

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    next_key = nrows
    batch_rows = max(8, nrows // 8)
    chunks = []
    for r in range(rounds):
        batch = make_base(batch_rows, seed=200 + r)
        batch["k"] += next_key
        next_key += batch_rows
        client.insert(vt, batch)
        client.update_where(vt, Compare("k", "<", (r + 1) * batch_rows // 2),
                            {"val": 2.5 + r})
        if r == rounds // 2:
            client.compact(vt)
        client.delete_where(vt,
                            Compare("k", ">=", next_key - batch_rows // 4))
        chunks.append(view.contents.canonical_bytes())
    wall = time.perf_counter() - t0
    sim_ns, events = sim.now - s0, _events(sim) - ev0
    # Exactness oracle (outside the measured phase): the maintained view,
    # the subscriber's folded copy, and the serial model rescan at the
    # same epoch must agree byte for byte.
    image, _ = client.table_read(vt)
    expected = model_sha(BASE_SCHEMA.from_bytes(image, copy=True))
    assert view.sha256() == expected, \
        "maintained view diverged from the serial model rescan"
    assert sub.sha256() == expected, \
        "subscriber's folded copy diverged from the view"
    assert sub.digest() == view.digest(), "subscriber digest mismatch"
    return {
        "wall_s": wall,
        "sim_ns": sim_ns,
        "events": events,
        "sha256": _digest(*chunks),
        "table_bytes": next_key * BASE_SCHEMA.row_width,
    }


def run_fig21_serving(num_tenants: int, mean_gap_ns: float = 200_000.0,
                      horizon_ns: float = 400_000.0):
    """Tenant serving layer: open-loop storm through the front door (fig 21).

    ``num_tenants`` sessions submit seeded Poisson arrivals over the
    horizon against a 2-node pool under the fair admission policy with
    request coalescing on; the measured phase is the full drain.  The
    digest folds every served record's result sha256 in completion
    order — grant order, coalescing-group membership, and result bytes
    are all deterministic, so the digest pins the serving layer's
    admission *and* execution semantics in one value.  ``table_bytes``
    counts only the table images the pool actually uploaded and
    scanned (one per execution, not per request) — coalescing is the
    point, so ``mb_per_s`` reflects it.
    """
    from repro.core.elasticity import RegionLeaseManager
    from repro.core.serving import FrontDoor
    from repro.experiments.fig21_serving import make_shapes
    from repro.workloads.generator import open_loop_arrivals

    sim = Simulator()
    nodes = [FarviewNode(sim, _bench_config()) for _ in range(2)]
    door = FrontDoor(RegionLeaseManager(nodes, policy="fair"))
    shapes = make_shapes()
    schedules = open_loop_arrivals(num_tenants, mean_gap_ns, horizon_ns,
                                   seed=21)
    procs = []
    for tenant, times in enumerate(schedules):
        session = door.session(tenant)
        for i, at_ns in enumerate(times):
            procs.append(
                session.submit_at(at_ns, shapes[(tenant + i) % len(shapes)]))

    ev0, t0, s0 = _events(sim), time.perf_counter(), sim.now
    sim.run()
    wall = time.perf_counter() - t0
    assert all(p.triggered and p.ok for p in procs)
    assert all(s.failed == 0 and s.completed == s.submitted
               for s in door.sessions), "a tenant starved in the bench storm"
    shape_bytes = {s.name: len(s.rows) * s.schema.row_width for s in shapes}
    return {
        "wall_s": wall,
        "sim_ns": sim.now - s0,
        "events": _events(sim) - ev0,
        "sha256": _digest(*(bytes.fromhex(rec.sha256)
                            for rec in door.records)),
        "table_bytes": sum(shape_bytes[rec.shape]
                           for rec in door.records if rec.led),
        "requests": door.requests,
        "executions": door.executions,
    }


# -- harness ------------------------------------------------------------------

FULL = {
    "fig6_read": lambda: run_fig6_read(4.0),
    "fig7_smart": lambda: run_fig7_smart(16_384),
    "fig8_selection": lambda: run_fig8_selection(1024),
    "fig12_multiclient": lambda: run_fig12_multiclient(1024),
    "fig13_scaleout": lambda: run_fig13_scaleout(1024, num_nodes=4),
    "fig14_pushdown": lambda: run_fig14_pushdown(1024),
    "fig15_updates": lambda: run_fig15_updates(1024),
    "fig16_joins": lambda: run_fig16_joins(256),
    "fig18_minitpch": lambda: run_fig18_minitpch(4096, num_nodes=4),
    "fig19_shuffle": lambda: run_fig19_shuffle(512, num_nodes=4),
    "fig20_views": lambda: run_fig20_views(256),
    "fig21_serving": lambda: run_fig21_serving(1000),
}

SMOKE = {
    "fig6_read": lambda: run_fig6_read(0.25),
    "fig7_smart": lambda: run_fig7_smart(512),
    "fig8_selection": lambda: run_fig8_selection(64),
    "fig12_multiclient": lambda: run_fig12_multiclient(64),
    "fig13_scaleout": lambda: run_fig13_scaleout(64, num_nodes=2),
    "fig14_pushdown": lambda: run_fig14_pushdown(64),
    "fig15_updates": lambda: run_fig15_updates(64),
    "fig16_joins": lambda: run_fig16_joins(64),
    "fig18_minitpch": lambda: run_fig18_minitpch(1024, num_nodes=2),
    "fig19_shuffle": lambda: run_fig19_shuffle(64, num_nodes=4),
    "fig20_views": lambda: run_fig20_views(16),
    "fig21_serving": lambda: run_fig21_serving(100),
}


def run_suite(workloads, repeat: int, compare_baseline: bool = True) -> dict:
    """Run every workload; annotate with baseline comparisons if requested.

    ``compare_baseline`` only makes sense for the FULL sizes (the stored
    baselines were measured at those sizes); ``--smoke`` skips it.
    """
    out = {}
    for name, fn in workloads.items():
        best = None
        for _ in range(repeat):
            sample = fn()
            if best is None or sample["wall_s"] < best["wall_s"]:
                best = sample
        best["mb_per_s"] = round(
            best["table_bytes"] / MB / best["wall_s"], 2)
        baseline = BASELINE_WALL_S.get(name) if compare_baseline else None
        if baseline:
            best["baseline_wall_s"] = baseline
            best["speedup_vs_baseline"] = round(baseline / best["wall_s"], 2)
        ref_sim = BASELINE_SIM_NS.get(name) if compare_baseline else None
        if ref_sim is not None:
            best["sim_ns_matches_baseline"] = (
                abs(best["sim_ns"] - ref_sim) < 1e-6 * max(ref_sim, 1.0))
        out[name] = best
        print(f"{name:>20}: {best['wall_s'] * 1e3:8.1f} ms wall  "
              f"{best['sim_ns'] / 1e3:10.1f} us sim  "
              f"{best['events']:>9} events  "
              f"{best.get('speedup_vs_baseline', '-'):>5}x  "
              f"sim-exact={best.get('sim_ns_matches_baseline', 'n/a')}")
    return out


def run_check(json_path: Path) -> int:
    """CI gate: verify the guards *without* rewriting any baseline.

    1. Re-runs every SMOKE workload and compares its (deterministic)
       ``sim_ns``, ``sha256`` and ``events`` against the pinned
       ``SMOKE_BASELINE_*`` tables.
    2. Cross-checks the committed ``BENCH_perf.json`` against
       ``BASELINE_SIM_NS``: every workload present, every stored
       ``sim_ns`` equal to its baseline, no stored
       ``sim_ns_matches_baseline: false``.

    Exits non-zero on any mismatch, so a PR cannot silently rewrite the
    timing/byte-exactness baselines — an intentional change must edit
    the pinned tables (and explain itself in CHANGES.md).
    """
    failures: list[str] = []

    def rel_mismatch(got: float, ref: float) -> bool:
        return abs(got - ref) > 1e-6 * max(abs(ref), 1.0)

    # Fault-layer determinism contract: exercise the injection machinery
    # on scratch objects (crash/recover, degrade/restore), then run the
    # fig6 smoke workload with an *empty* FaultPlan installed — both the
    # timing and the bytes must match the pinned no-fault baselines
    # exactly, proving the fault layer is zero-cost while disabled.
    from repro.core.faults import FaultInjector, FaultPlan

    scratch_sim = Simulator()
    scratch = FarviewNode(scratch_sim, _bench_config())
    chaos = FaultInjector(scratch)
    chaos.crash(0)
    chaos.recover(0)
    chaos.degrade_link(0, latency_add_ns=500.0, rate_factor=0.5, loss=0.01)
    chaos.restore_link(0)
    armed = run_fig6_read(0.25, fault_plan=FaultPlan())
    ref_sim = SMOKE_BASELINE_SIM_NS["fig6_read"]
    ref_sha = SMOKE_BASELINE_SHA256["fig6_read"]
    sim_ok = not rel_mismatch(armed["sim_ns"], ref_sim)
    sha_ok = armed["sha256"] == ref_sha
    print(f"{'fig6_read+faultlayer':>20}: "
          f"sim_ns {'ok' if sim_ok else 'MISMATCH'}  "
          f"sha256 {'ok' if sha_ok else 'MISMATCH'}")
    if not sim_ok:
        failures.append(
            f"fault layer (empty plan) perturbed fig6_read sim_ns: "
            f"{armed['sim_ns']!r} != pinned {ref_sim!r}")
    if not sha_ok:
        failures.append(
            f"fault layer (empty plan) perturbed fig6_read bytes: "
            f"{armed['sha256']} != pinned {ref_sha}")

    for name, fn in SMOKE.items():
        sample = fn()
        ref_sim = SMOKE_BASELINE_SIM_NS.get(name)
        ref_sha = SMOKE_BASELINE_SHA256.get(name)
        ref_events = SMOKE_BASELINE_EVENTS.get(name)
        sim_ok = ref_sim is not None and not rel_mismatch(sample["sim_ns"],
                                                          ref_sim)
        sha_ok = sample["sha256"] == ref_sha
        events_ok = sample["events"] == ref_events
        print(f"{name:>20}: sim_ns {'ok' if sim_ok else 'MISMATCH'}  "
              f"sha256 {'ok' if sha_ok else 'MISMATCH'}  "
              f"events {'ok' if events_ok else 'MISMATCH'}")
        if ref_sim is None or ref_sha is None or ref_events is None:
            failures.append(f"{name}: no pinned smoke baseline")
            continue
        if not events_ok:
            failures.append(
                f"{name}: smoke events {sample['events']} != pinned "
                f"{ref_events}")
        if not sim_ok:
            failures.append(
                f"{name}: smoke sim_ns {sample['sim_ns']!r} != pinned "
                f"{ref_sim!r}")
        if not sha_ok:
            failures.append(
                f"{name}: smoke sha256 {sample['sha256']} != pinned "
                f"{ref_sha}")

    if not json_path.exists():
        failures.append(f"{json_path} is missing")
    else:
        workloads = json.loads(json_path.read_text()).get("workloads", {})
        for name in FULL:
            if name not in workloads:
                failures.append(f"{json_path.name}: workload {name} missing")
        for name, record in workloads.items():
            ref = BASELINE_SIM_NS.get(name)
            if ref is None:
                failures.append(
                    f"{json_path.name}: {name} has no BASELINE_SIM_NS entry")
            elif rel_mismatch(record.get("sim_ns", float("nan")), ref):
                failures.append(
                    f"{json_path.name}: {name} sim_ns "
                    f"{record.get('sim_ns')!r} != baseline {ref!r}")
            if record.get("sim_ns_matches_baseline") is False:
                failures.append(
                    f"{json_path.name}: {name} recorded "
                    f"sim_ns_matches_baseline=false")

    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        return 1
    print(f"check ok: {len(SMOKE)} smoke workloads + {json_path.name} "
          f"match the pinned baselines")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition, no JSON output")
    parser.add_argument("--check", action="store_true",
                        help="CI gate: verify smoke sim_ns/sha256 and the "
                             "committed BENCH_perf.json against the pinned "
                             "baselines; never writes anything")
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"--repeat must be >= 1, got {value}")
        return value

    parser.add_argument("--repeat", type=positive_int, default=3,
                        help="repetitions per workload (min wall kept)")
    parser.add_argument("--json", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_perf.json",
                        help="output path for the JSON report")
    args = parser.parse_args()

    if args.check:
        return run_check(args.json)

    workloads = SMOKE if args.smoke else FULL
    repeat = 1 if args.smoke else args.repeat
    results = run_suite(workloads, repeat, compare_baseline=not args.smoke)

    if args.smoke:
        print("smoke ok")
        return 0

    report = {
        "harness": "benchmarks/bench_perf.py",
        "units": {"wall_s": "host seconds (best of repeat)",
                  "sim_ns": "simulated nanoseconds (refactor-invariant)",
                  "events": "simulator callbacks executed",
                  "mb_per_s": "table MB processed per host second"},
        "workloads": results,
    }
    args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
