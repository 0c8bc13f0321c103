"""Figure 18 (extension): mini TPC-H through the SQL compiler.

The compiler PR's headline experiment: Q1/Q3/Q6-class statements from
:mod:`repro.workloads.tpch` run **end-to-end as SQL text** — tokenizer,
IR, binder, lowered DAG — on a 4-node disaggregated pool, under all
three placements, and every result's sha256 is pinned against
:mod:`repro.baselines.sql_model`, a serial numpy/python re-execution
that shares none of the engine's operator, simulator, or cluster code.

* **Q1-class** — grouped aggregation (SUM/AVG/COUNT) with HAVING and
  ORDER BY variants.  Aggregates the integer-valued ``quantity`` so the
  cluster's associative partial merges stay byte-exact (float columns
  may wobble in the last ulp — the documented cluster contract).
* **Q3-class** — a three-table join (lineitem x orders x customer) with
  per-table WHERE pushdown, an expression aggregate
  ``SUM(extendedprice * (1 - discount))``, and a top-10 ORDER BY.
* **Q6-class** — the 2%-selectivity band scan with a client-side
  expression revenue sum.

Every (query, placement) cell must be sha256-identical to the model
(asserted); reported times are warm runs (deploy excluded, like every
other figure).
"""

from __future__ import annotations

import hashlib

from ..baselines.sql_model import model_sha256
from ..core.api import ClusterClient, canonical_result_bytes
from ..core.cluster import FarviewCluster
from ..sim.engine import Simulator
from ..sim.stats import Series
from ..workloads import tpch
from .common import EXPERIMENT_CONFIG, ExperimentResult, us

#: Placements swept per query, in reporting order.
STRATEGIES = ("offload", "ship", "auto")

NUM_NODES = 4

#: Mini-scale row counts: large enough that every operator (join build,
#: group hash, sort) does real work, small enough that the serial
#: python model stays fast.
NUM_LINEITEM = 4096
NUM_ORDERS = 768
NUM_CUSTOMERS = 256

#: The conformance workload, in reporting order.
QUERIES: tuple[tuple[str, str], ...] = (
    ("Q1", tpch.q1_sql()),
    ("Q1-having", tpch.q1_having_sql()),
    ("Q3", tpch.q3_sql()),
    ("Q6", tpch.q6_sql()),
)


def make_tables(num_lineitem: int = NUM_LINEITEM,
                num_orders: int = NUM_ORDERS,
                num_customers: int = NUM_CUSTOMERS) -> dict:
    """The FK-consistent mini star: ``{name: (schema, rows)}``."""
    return {
        "lineitem": (tpch.LINEITEM_SCHEMA,
                     tpch.lineitem_for_orders(num_lineitem, num_orders)),
        "orders": (tpch.ORDERS_SCHEMA,
                   tpch.orders(num_orders, num_customers)),
        "customer": (tpch.CUSTOMER_SCHEMA,
                     tpch.customer(num_customers)),
    }


def _make_cluster(tables: dict, num_nodes: int) -> ClusterClient:
    client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                          EXPERIMENT_CONFIG))
    client.open_connection()
    for name, (schema, rows) in tables.items():
        client.create_table(name, schema, rows)
    return client


def run_conformance(num_nodes: int = NUM_NODES) -> ExperimentResult:
    """fig18: every query x placement, sha-pinned against the model."""
    tables = make_tables()
    expected = {label: model_sha256(stmt, tables)
                for label, stmt in QUERIES}
    series = {s: Series(f"FV-{s[:4]}") for s in STRATEGIES}
    clients = {s: _make_cluster(tables, num_nodes) for s in STRATEGIES}
    for qx, (label, stmt) in enumerate(QUERIES, start=1):
        for strategy in STRATEGIES:
            client = clients[strategy]
            client.sql(stmt, placement=strategy)       # deploy (cold)
            result, elapsed = client.sql(stmt, placement=strategy)
            digest = hashlib.sha256(
                canonical_result_bytes(result)).hexdigest()
            assert digest == expected[label], (
                f"{label} under {strategy} on {num_nodes} nodes diverged "
                f"from the serial model: {digest} != {expected[label]}")
            series[strategy].add(qx, us(elapsed), query=label)
    return ExperimentResult(
        experiment_id="fig18",
        title=(f"Mini TPC-H through the SQL compiler, "
               f"{num_nodes}-node pool ({NUM_LINEITEM} lineitem rows)"),
        x_label="query (1=Q1, 2=Q1-having, 3=Q3, 4=Q6)", y_label="us",
        series=list(series.values()),
        notes=[
            "each statement is compiled from SQL text (IR, binder, "
            "lowered DAG) and scatter-gathered over the pool",
            "every query x placement cell is sha256-identical to the "
            "serial numpy re-execution model (asserted)",
            "warm runs; the cold deploy pass is excluded, like every "
            "other figure",
        ])


def run() -> list[ExperimentResult]:
    return [run_conformance()]
