"""Figure 12: six concurrent clients running DISTINCT (§6.8).

Six clients each own a table (the x axis sweeps the per-client table
size) and run the distinct query concurrently.  The distinct count is
kept small "to prevent the network from becoming the main bottleneck and
to maximize DRAM performance"; the measurement is "the time taken until
all six client queries have completed".

* FV — six dynamic regions execute spatially in parallel; the MMU's
  striped channels and the fair-share arbiters split DRAM bandwidth
  evenly (§4.4).
* LCPU / RCPU — six processes on one socket contend for DRAM and the
  shared LLC (modelled by the interference factor + socket ceiling).

Expected shape: FV lowest and scaling smoothly; the CPU baselines degrade
super-proportionally from contention, RCPU worst.
"""

from __future__ import annotations

from ..baselines.cpu_model import CpuCostModel
from ..baselines.lcpu import LcpuBaseline
from ..baselines.rcpu import RcpuBaseline
from ..core.api import FarviewClient
from ..core.compile import BoundDistinct
from ..core.node import FarviewNode
from ..core.query import select_distinct
from ..core.table import FTable
from ..sim.engine import Simulator
from ..sim.stats import Series
from ..workloads.generator import distinct_workload
from .common import EXPERIMENT_CONFIG, ExperimentResult, us

KB = 1024
MB = 1024 * KB
TABLE_SIZES = (64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB)
NUM_CLIENTS = 6
DISTINCT_VALUES = 64  # small, per the paper
ROW_WIDTH = 64


def fv_multiclient_time(table_size: int,
                        num_clients: int = NUM_CLIENTS) -> float:
    """Time until all clients' distinct queries complete (warm pipelines)."""
    sim = Simulator()
    node = FarviewNode(sim, EXPERIMENT_CONFIG)
    clients = []
    tables = []
    n = table_size // ROW_WIDTH
    for i in range(num_clients):
        client = FarviewClient(node)
        client.open_connection()
        schema, rows = distinct_workload(n, min(DISTINCT_VALUES, n), seed=i)
        table = FTable(f"T{i}", schema, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        clients.append(client)
        tables.append(table)
    query = select_distinct(["a"])
    # Deploy all pipelines first (reconfiguration excluded, §3.2).
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
    for i, result in results.items():
        assert len(result.rows()) == min(DISTINCT_VALUES, n)
    return sim.now - start


def cpu_multiclient_time(table_size: int, remote: bool,
                         num_clients: int = NUM_CLIENTS) -> float:
    """Completion time of the slowest of six contending CPU processes."""
    model = CpuCostModel(active_clients=num_clients)
    baseline = RcpuBaseline(model) if remote else LcpuBaseline(model)
    n = table_size // ROW_WIDTH
    schema, rows = distinct_workload(n, min(DISTINCT_VALUES, n))
    _, elapsed, _ = baseline.run(schema, rows, [BoundDistinct(("a",))])
    # All six run the same workload concurrently; with fair contention
    # each sees the degraded bandwidth already, so the slowest ~ the model.
    return elapsed


def run(table_sizes=TABLE_SIZES) -> ExperimentResult:
    fv = Series("FV")
    lcpu_s = Series("LCPU")
    rcpu_s = Series("RCPU")
    for size in table_sizes:
        fv.add(size, us(fv_multiclient_time(size)))
        lcpu_s.add(size, us(cpu_multiclient_time(size, remote=False)))
        rcpu_s.add(size, us(cpu_multiclient_time(size, remote=True)))
    return ExperimentResult(
        experiment_id="fig12",
        title=f"{NUM_CLIENTS} concurrent clients running DISTINCT",
        x_label="table [B]", y_label="us",
        series=[fv, lcpu_s, rcpu_s],
        notes=["time until all clients complete; small distinct count",
               "FV: spatial parallelism + fair-shared DRAM; CPU baselines "
               "contend for DRAM/LLC"])
