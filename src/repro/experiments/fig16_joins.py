"""Figure 16 (extension): end-to-end small-table joins.

The paper's §7 sketches joins against small tables as the next operator
to push into the memory fabric; this experiment measures the two
decisions that sketch leaves open:

* **fig16a — where should the join run?**  ``SELECT fact.*, dim.rate
  FROM fact JOIN dim ON fact.a = dim.id`` executed three ways on a cold
  small region (the fig14 ad-hoc scenario):

  - ``FV-off``  — offload: the dimension table is read into the
    region's on-chip hash (build-ingest + BRAM fill), the fact table
    streams through the probe pipeline;
  - ``FV-ship`` — ship: raw reads of both tables + the client-side
    :func:`~repro.baselines.sw_ops.software_join` (build-hash + probe
    CPU cost);
  - ``FV-auto`` — the cost-based planner picks per query,

  swept over the build-table size.  The ship side's build-hash cost
  grows faster than the offload side's build-ingest, so the crossover
  moves with the build size; ``FV-auto`` must track
  ``min(FV-off, FV-ship)`` within 10% at every point (asserted), and
  all three placements must produce byte-identical results (asserted).

* **fig16b — does the broadcast join scale out?**  The same join
  scatter-gathered over a sharded pool of 1/2/4/8 nodes: the dimension
  table is broadcast to every node once (cached replicas), each node
  probes its fact shard locally, and the merge concatenates in shard
  order.  Warm response times are reported, and every pool size's
  merged bytes must be sha256-identical to single-node execution
  (asserted).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..common.records import Column, Schema, default_schema
from ..core.api import (ClusterClient, FarviewClient,
                        canonical_result_bytes)
from ..core.cluster import FarviewCluster
from ..core.cost_model import PlanStats
from ..core.node import FarviewNode
from ..core.query import JoinSpec, Query
from ..core.table import FTable
from ..sim.engine import Simulator
from ..sim.stats import Series
from ..workloads.generator import make_rows
from .common import EXPERIMENT_CONFIG, ExperimentResult, us
from .fig14_pushdown import TRACKING_BOUND, scenario_config

#: The swept strategies of fig16a, in reporting order.
STRATEGIES = ("offload", "ship", "auto")

#: Small enough that the cold region's reconfiguration charge keeps the
#: placement contested (the fig14 ad-hoc regime): ship wins the small
#: builds, offload wins once the client's build-hash outgrows the node's
#: build-ingest — the crossover sits mid-sweep and moves with build size.
FACT_BYTES = 256 * 1024
BUILD_ROWS = (256, 1024, 4096, 16384, 49152)
NODE_COUNTS = (1, 2, 4, 8)
CLUSTER_FACT_ROWS = 16384
CLUSTER_BUILD_ROWS = 1024

DIM_SCHEMA = Schema([Column("id", "int64"), Column("rate", "float64")])


def make_dim(num_rows: int) -> np.ndarray:
    rows = DIM_SCHEMA.empty(num_rows)
    rows["id"] = np.arange(num_rows)
    rows["rate"] = (np.arange(num_rows) % 97) * 0.25
    return rows


def make_fact(num_rows: int, key_range: int,
              seed: int = 16) -> tuple[Schema, np.ndarray]:
    schema = default_schema()
    rows = make_rows(schema, num_rows, seed=seed)
    # Uniform foreign keys over the dimension's key range: every probe
    # matches (the star-schema shape; join_match_ratio = 1).
    rng = np.random.default_rng(seed)
    rows["a"] = rng.integers(0, key_range, num_rows)
    return schema, rows


def join_query(dim_table) -> Query:
    return Query(join=JoinSpec(dim_table, "id", "a", ("rate",)),
                 label="fig16")


def _cold_bench(config, buffer_capacity: int) -> FarviewClient:
    sim = Simulator()
    client = FarviewClient(FarviewNode(sim, config),
                           buffer_capacity=buffer_capacity)
    client.open_connection()
    return client


def _measure_point(build_rows: int, fact_bytes: int,
                   config) -> dict[str, float]:
    """One fig16a sweep point: the three strategies on cold benches."""
    schema, fact = make_fact(fact_bytes // default_schema().row_width,
                             key_range=build_rows)
    dim = make_dim(build_rows)
    stats = PlanStats(join_match_ratio=1.0)
    times: dict[str, float] = {}
    digests: dict[str, bytes] = {}
    # Output carries the probe row + 8 B payload; size the buffer for it.
    buffer_capacity = 2 * fact_bytes + len(dim) * DIM_SCHEMA.row_width + 64 * 1024
    for strategy in STRATEGIES:
        client = _cold_bench(config, buffer_capacity)
        dim_table = FTable("dim", DIM_SCHEMA, len(dim))
        client.alloc_table_mem(dim_table)
        client.table_write(dim_table, dim)
        fact_table = FTable("fact", schema, len(fact))
        client.alloc_table_mem(fact_table)
        client.table_write(fact_table, fact)
        result, elapsed = client.far_view_planned(
            fact_table, join_query(dim_table), placement=strategy,
            stats=stats)
        times[strategy] = elapsed
        digests[strategy] = canonical_result_bytes(result)
    assert digests["ship"] == digests["offload"], "ship changed join bytes"
    assert digests["auto"] == digests["offload"], "auto changed join bytes"
    return times


def run_build_sweep(fact_bytes: int = FACT_BYTES,
                    build_rows=BUILD_ROWS) -> ExperimentResult:
    """fig16a: join latency vs build-table size, cold small regions."""
    config = scenario_config()
    off, ship, auto = Series("FV-off"), Series("FV-ship"), Series("FV-auto")
    worst_tracking = 0.0
    for rows in build_rows:
        times = _measure_point(rows, fact_bytes, config)
        off.add(rows, us(times["offload"]))
        ship.add(rows, us(times["ship"]))
        auto.add(rows, us(times["auto"]))
        best = min(times["offload"], times["ship"])
        tracking = times["auto"] / best
        worst_tracking = max(worst_tracking, tracking)
        assert tracking <= TRACKING_BOUND, (
            f"auto planner off the min by {tracking:.2f}x at "
            f"build_rows={rows}")
    return ExperimentResult(
        experiment_id="fig16a",
        title=(f"Join placement vs build size, "
               f"{fact_bytes // 1024} kB fact table (cold region)"),
        x_label="build rows", y_label="us",
        series=[off, ship, auto],
        notes=[
            "ship pays build wire read + build-hash + probe CPU; offload "
            "pays reconfiguration + build-ingest + BRAM fill — the "
            "crossover moves with the build-side size",
            f"FV-auto tracks min(FV-off, FV-ship) within "
            f"{(worst_tracking - 1) * 100:.1f}% "
            f"(bound {(TRACKING_BOUND - 1) * 100:.0f}%)",
        ])


def run_scaleout(fact_rows: int = CLUSTER_FACT_ROWS,
                 build_rows: int = CLUSTER_BUILD_ROWS,
                 node_counts=NODE_COUNTS) -> ExperimentResult:
    """fig16b: broadcast join latency vs pool size, sha-pinned merges."""
    schema, fact = make_fact(fact_rows, key_range=build_rows, seed=61)
    dim = make_dim(build_rows)
    latency = Series("FV-join")
    reference_sha: str | None = None
    for num_nodes in node_counts:
        sim = Simulator()
        client = ClusterClient(FarviewCluster(sim, num_nodes,
                                              EXPERIMENT_CONFIG))
        client.open_connection()
        dim_sharded = client.create_table("dim", DIM_SCHEMA, dim)
        fact_sharded = client.create_table("fact", schema, fact)
        query = join_query(dim_sharded)
        client.far_view(fact_sharded, query)   # deploy + broadcast
        result, elapsed = client.far_view(fact_sharded, query)
        digest = hashlib.sha256(result.data).hexdigest()
        if reference_sha is None:
            reference_sha = digest
        assert digest == reference_sha, (
            f"{num_nodes}-node broadcast join diverged from single-node "
            f"bytes")
        latency.add(num_nodes, us(elapsed))
    return ExperimentResult(
        experiment_id="fig16b",
        title=(f"Broadcast join scale-out, {fact_rows} fact rows x "
               f"{build_rows} build rows"),
        x_label="nodes", y_label="us",
        series=[latency],
        notes=[
            "the build side is broadcast once (cached replicas); warm "
            "probes scatter over the shards and merge in probe order",
            "merged bytes sha256-identical to single-node execution at "
            "every pool size (asserted)",
        ])


def run() -> list[ExperimentResult]:
    return [run_build_sweep(), run_scaleout()]
