"""Figure 19 (extension): partition-aware distributed joins.

The broadcast join of fig16 replicates the whole build table onto every
node — fine for the paper's small dimension tables, linearly wasteful as
the build grows or the pool widens.  This experiment measures the two
strategies that exploit table partitioning instead:

* **fig19a — repartition shuffle vs broadcast.**  A fact table
  hash-partitioned on the join key probes a chunk-partitioned build
  table on a 4-node pool with k=2 shard replication, swept over the
  build size on cold clusters (every cell pays its build movement).
  ``broadcast`` writes the full build to all N nodes in parallel;
  ``shuffle`` re-keys the build with the fact's splitmix64 placement
  hash and writes each node only its 1/N fragment (plus the failover
  ring's copies, serialized per node link) — so broadcast's fixed
  per-request costs win small builds while shuffle's N-fold byte saving
  wins large ones.  Latency and bytes-on-wire are reported per
  strategy; ``auto`` must sit within 10% of the best strategy at every
  cell (asserted) and shuffle must beat broadcast beyond the crossover
  (asserted).  Every cell's merged rows are sha256-identical to the
  serial single-node model (asserted).

* **fig19b — strategy by partitioning scheme and pool size.**  The same
  join under ``auto`` across node counts x fact partitioning schemes
  (``chunk`` / ``hash`` / ``range``).  With both sides hash-partitioned
  on the join key the planner goes **co-located**: every shard probes
  the build shard already living on its node and the cell is asserted
  to move *zero* replica bytes.  Chunk and range facts fall back to
  broadcast.  Every cell's canonical rows (sorted on the unique
  sequence column) are sha256-identical to single-node execution
  (asserted).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..common.records import Column, Schema
from ..core.api import ClusterClient
from ..core.cluster import FarviewCluster
from ..core.partition import PartitionSpec
from ..core.query import JoinSpec, Query
from ..sim.engine import Simulator
from ..sim.stats import Series
from .common import EXPERIMENT_CONFIG, ExperimentResult, us

#: fig19a strategies in reporting order (auto resolves per cell).
STRATEGIES = ("broadcast", "shuffle", "auto")

#: fig19a sweep: build sizes spanning the broadcast/shuffle crossover.
BUILD_ROWS = (256, 2048, 8192, 32768)
FACT_ROWS = 8192
NODES = 4
REPLICAS = 2

#: fig19b grid.
NODE_COUNTS = (1, 2, 4)
SCHEMES = ("chunk", "hash", "range")
GRID_BUILD_ROWS = 2048

#: ``auto`` must track the best strategy within this factor (fig19a).
TRACKING_BOUND = 1.10

FACT_SCHEMA = Schema([
    Column("key", "int64"),     # foreign key into the build table
    Column("seq", "int64"),     # unique: the canonical sort column
    Column("val", "float64"),
])
DIM_SCHEMA = Schema([Column("id", "int64"), Column("rate", "float64")])
JOINED_SCHEMA = Schema(list(FACT_SCHEMA.columns)
                       + [Column("rate", "float64")])


def make_fact(num_rows: int, key_range: int, seed: int = 19) -> np.ndarray:
    rows = FACT_SCHEMA.empty(num_rows)
    rng = np.random.default_rng(seed)
    rows["key"] = rng.integers(0, key_range, num_rows)
    rows["seq"] = np.arange(num_rows)
    rows["val"] = rng.integers(0, 1000, num_rows) * 0.5
    return rows


def make_dim(num_rows: int) -> np.ndarray:
    rows = DIM_SCHEMA.empty(num_rows)
    rows["id"] = np.arange(num_rows)
    rows["rate"] = (np.arange(num_rows) % 97) * 0.25
    return rows


def join_query(dim_table) -> Query:
    return Query(join=JoinSpec(dim_table, "id", "key", ("rate",)),
                 label="fig19")


def serial_model(fact: np.ndarray, dim: np.ndarray) -> np.ndarray:
    """Serial dict-build + probe oracle, in fact-row order."""
    build = {int(dim["id"][j]): j for j in range(len(dim))}
    hits = [(i, build[int(k)]) for i, k in enumerate(fact["key"])
            if int(k) in build]
    out = JOINED_SCHEMA.empty(len(hits))
    for row, (i, j) in enumerate(hits):
        out["key"][row] = fact["key"][i]
        out["seq"][row] = fact["seq"][i]
        out["val"][row] = fact["val"][i]
        out["rate"][row] = dim["rate"][j]
    return out


def canonical_sha(schema: Schema, rows: np.ndarray) -> str:
    """sha256 of the rows sorted on the unique ``seq`` column — the
    partitioning-independent byte image."""
    return hashlib.sha256(
        schema.to_bytes(rows[np.argsort(rows["seq"],
                                        kind="stable")])).hexdigest()


def _fresh_cluster(num_nodes: int) -> ClusterClient:
    client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                          EXPERIMENT_CONFIG))
    client.open_connection()
    return client


def _run_cell(num_nodes: int, fact_spec: PartitionSpec,
              dim_spec: PartitionSpec, fact: np.ndarray, dim: np.ndarray,
              strategy: str | None):
    """One cold cluster, one join execution under ``strategy``.

    Returns ``(result, elapsed_ns, wire_bytes, client)`` where
    ``wire_bytes`` counts build movement (broadcast replicas or shuffle
    fragments) plus the shipped shard results.
    """
    client = _fresh_cluster(num_nodes)
    dim_sharded = client.create_table("dim", DIM_SCHEMA, dim,
                                      partition=dim_spec)
    fact_sharded = client.create_table("fact", FACT_SCHEMA, fact,
                                       partition=fact_spec)
    result, elapsed = client.far_view(fact_sharded, join_query(dim_sharded),
                                      join_strategy=strategy)
    wire = client.replica_bytes_moved + result.bytes_shipped
    return result, elapsed, wire, client


def run_build_sweep(build_rows=BUILD_ROWS,
                    fact_rows: int = FACT_ROWS) -> ExperimentResult:
    """fig19a: broadcast vs shuffle vs auto over the build size."""
    fact = make_fact(fact_rows, key_range=max(build_rows))
    fact_spec = PartitionSpec("hash", key="key", replicas=REPLICAS)
    dim_spec = PartitionSpec(replicas=1)      # chunk: co-located infeasible
    latency = {s: Series(f"FV-{s}") for s in STRATEGIES}
    wire_kb = {s: Series(f"{s}-wire") for s in ("broadcast", "shuffle")}
    crossed = False
    for rows in build_rows:
        dim = make_dim(rows)
        expected = canonical_sha(JOINED_SCHEMA, serial_model(fact, dim))
        times: dict[str, float] = {}
        for strategy in STRATEGIES:
            requested = None if strategy == "auto" else strategy
            result, elapsed, wire, _client = _run_cell(
                NODES, fact_spec, dim_spec, fact, dim, requested)
            assert canonical_sha(result.schema, result.rows()) == expected, (
                f"{strategy} diverged from the serial model at "
                f"build_rows={rows}")
            times[strategy] = elapsed
            latency[strategy].add(rows, us(elapsed))
            if strategy in wire_kb:
                wire_kb[strategy].add(rows, wire / 1024)
        best = min(times["broadcast"], times["shuffle"])
        assert times["auto"] <= best * TRACKING_BOUND, (
            f"auto off the best strategy by "
            f"{times['auto'] / best:.2f}x at build_rows={rows}")
        if times["shuffle"] < times["broadcast"]:
            crossed = True
    assert crossed, ("shuffle never beat broadcast — the sweep does not "
                     "reach the crossover")
    assert (latency["shuffle"].points[-1].y
            < latency["broadcast"].points[-1].y), (
        "shuffle must win the largest build")
    return ExperimentResult(
        experiment_id="fig19a",
        title=(f"Repartition shuffle vs broadcast, {fact_rows} fact rows, "
               f"{NODES} nodes, k={REPLICAS} (cold clusters)"),
        x_label="build rows", y_label="us (latency) / kB (wire)",
        series=[latency["broadcast"], latency["shuffle"], latency["auto"],
                wire_kb["broadcast"], wire_kb["shuffle"]],
        notes=[
            "broadcast writes the full build to every node in parallel; "
            "shuffle re-keys it with the fact's placement hash and writes "
            "each node its 1/N fragment (ring copies serialized per link)",
            f"auto tracks min(broadcast, shuffle) within "
            f"{(TRACKING_BOUND - 1) * 100:.0f}% at every cell (asserted); "
            "all cells sha256-identical to the serial model (asserted)",
        ])


def run_scheme_grid(node_counts=NODE_COUNTS,
                    build_rows: int = GRID_BUILD_ROWS) -> ExperimentResult:
    """fig19b: auto strategy across schemes x pool sizes, sha-pinned."""
    fact = make_fact(FACT_ROWS, key_range=build_rows, seed=61)
    dim = make_dim(build_rows)
    expected = canonical_sha(JOINED_SCHEMA, serial_model(fact, dim))
    series = {scheme: Series(f"{scheme}-fact") for scheme in SCHEMES}
    colocated_cells = 0
    for scheme in SCHEMES:
        for num_nodes in node_counts:
            if scheme == "chunk":
                fact_spec = PartitionSpec(replicas=1)
                dim_spec = PartitionSpec(replicas=1)
            elif scheme == "hash":
                fact_spec = PartitionSpec("hash", key="key", replicas=1)
                dim_spec = PartitionSpec("hash", key="id", replicas=1)
            else:
                fact_spec = PartitionSpec("range", key="key", replicas=1)
                dim_spec = PartitionSpec(replicas=1)
            result, elapsed, _wire, client = _run_cell(
                num_nodes, fact_spec, dim_spec, fact, dim, None)
            assert canonical_sha(result.schema, result.rows()) == expected, (
                f"{scheme} x {num_nodes} nodes diverged from single-node "
                f"bytes")
            if scheme == "hash":
                assert result.join_strategy == "colocated", (
                    f"hash x hash must co-locate, got "
                    f"{result.join_strategy}")
                assert client.replica_bytes_moved == 0, (
                    "a co-located join moved replica bytes")
                colocated_cells += 1
            else:
                assert result.join_strategy == "broadcast", (
                    f"{scheme} fact has no partitioned strategy, got "
                    f"{result.join_strategy}")
            series[scheme].add(num_nodes, us(elapsed))
    assert colocated_cells == len(node_counts)
    return ExperimentResult(
        experiment_id="fig19b",
        title=(f"Join strategy by partitioning scheme, {FACT_ROWS} fact "
               f"rows x {build_rows} build rows (auto)"),
        x_label="nodes", y_label="us",
        series=[series[s] for s in SCHEMES],
        notes=[
            "hash x hash cells run co-located: zero replica bytes moved "
            "(asserted); chunk and range facts broadcast",
            "every cell's canonical rows sha256-identical to single-node "
            "execution (asserted)",
        ])


def run() -> list[ExperimentResult]:
    return [run_build_sweep(), run_scheme_grid()]
