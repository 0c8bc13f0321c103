"""Figure 13 (repo extension): scale-out of the six-client DISTINCT pool.

The paper evaluates one Farview node; its deployment model, however, is a
*pool* of disaggregated-memory nodes (§1, §4.1).  This experiment extends
Figure 12's six-client DISTINCT workload along the pool axis: each
client's table is chunk-partitioned across all N nodes and every query
scatters to the shards and gathers client-side
(:class:`~repro.core.api.ClusterClient`).

* x axis — pool size (node count); every node contributes its own striped
  DRAM channels, 100 Gbps link and six dynamic regions.
* y axis — aggregate pool throughput in GB/s: total table bytes processed
  divided by the simulated time until the last shard's results land in
  client memory across all six clients.  As everywhere in this repo,
  client-side software post-processing (here the scatter-gather merge,
  in Figure 12 the paper's software dedup) contributes bytes but no
  simulated time — the measurement endpoint is §6.2's "results written
  to the memory of the client machine".
* ``FV-pool`` — measured; ``ideal`` — linear scaling from the one-node
  point, for reference.

Expected shape: near-linear growth.  Shards execute with true spatial
parallelism and DISTINCT ships only ~64 distinct keys per shard, so the
scatter overhead (one request per shard) and the client-side dedup are
small against the streamed table bytes; efficiency erodes only gently as
per-shard tables shrink toward the fixed per-request cost.

Result correctness is pinned elsewhere: the cluster tests assert the
merged DISTINCT bytes are sha256-identical to single-node execution on
the same data (see ``tests/test_core_cluster.py``).
"""

from __future__ import annotations

from ..core.api import ClusterClient
from ..core.cluster import FarviewCluster
from ..core.query import select_distinct
from ..sim.engine import Simulator
from ..sim.stats import Series
from ..workloads.generator import distinct_workload
from .common import EXPERIMENT_CONFIG, ExperimentResult

KB = 1024
MB = 1024 * KB

NODE_COUNTS = (1, 2, 4, 8)
TABLE_SIZE = 1 * MB           # per client, as in Figure 12's upper range
NUM_CLIENTS = 6
DISTINCT_VALUES = 64          # small, per the paper (§6.8)
ROW_WIDTH = 64


def pool_completion_time(table_size: int, num_nodes: int,
                         num_clients: int = NUM_CLIENTS) -> float:
    """Time until all clients' scatter-gather DISTINCT queries complete.

    Mirrors :func:`repro.experiments.fig12_multiclient.fv_multiclient_time`
    but shards every client table across an ``num_nodes``-node pool (warm
    pipelines: every shard region is deployed before the measured run).
    """
    sim = Simulator()
    cluster = FarviewCluster(sim, num_nodes, EXPERIMENT_CONFIG)
    clients, tables = [], []
    n = table_size // ROW_WIDTH
    for i in range(num_clients):
        client = ClusterClient(cluster)
        client.open_connection()
        schema, rows = distinct_workload(n, min(DISTINCT_VALUES, n), seed=i)
        table = client.create_table(f"T{i}", schema, rows)
        clients.append(client)
        tables.append(table)
    query = select_distinct(["a"])
    # Deploy all shard pipelines first (reconfiguration excluded, §3.2).
    for client, table in zip(clients, tables):
        client.far_view(table, query)

    results = {}

    def run_one(client, table, tag):
        result = yield from client.far_view_proc(table, query)
        results[tag] = result

    start = sim.now
    procs = [sim.process(run_one(c, t, i))
             for i, (c, t) in enumerate(zip(clients, tables))]
    sim.run()
    assert all(p.triggered for p in procs)
    for result in results.values():
        assert result.num_rows == min(DISTINCT_VALUES, n)
    return sim.now - start


def run(node_counts=NODE_COUNTS, table_size=TABLE_SIZE) -> ExperimentResult:
    pool = Series("FV-pool")
    ideal = Series("ideal")
    base_throughput = None
    total_bytes = NUM_CLIENTS * table_size
    for num_nodes in node_counts:
        elapsed_ns = pool_completion_time(table_size, num_nodes)
        throughput = total_bytes / elapsed_ns  # bytes/ns == GB/s
        if base_throughput is None:
            base_throughput = throughput / num_nodes
        pool.add(num_nodes, throughput)
        ideal.add(num_nodes, base_throughput * num_nodes)
    return ExperimentResult(
        experiment_id="fig13",
        title=f"pool scale-out: {NUM_CLIENTS} clients running DISTINCT",
        x_label="nodes", y_label="GB/s",
        series=[pool, ideal],
        notes=[f"per-client table {table_size // KB} KiB chunk-partitioned "
               f"over all nodes; completion = all clients merged",
               f"FV-pool: scatter-gather over independent nodes; ideal: "
               f"linear scaling from the {node_counts[0]}-node measurement"])
