"""The four benchmark workloads: inputs, setup, measured phase, reference.

Each workload is a class with the same five methods, so the driver in
``run.py`` can time the two halves of a round separately and keep every
check out of the timed windows:

* ``__init__(seed, size)`` — generate the inputs from the seed and compute
  the serial reference (``numpy``, ``baselines.sw_ops``,
  ``baselines.sql_model``).  Runs once per process, before any clock.
* ``setup(lap)`` — build the simulator, nodes, connections, upload the
  tables and deploy the warm pipelines.  Timed as ``setup_s``.
* ``measure(state, lap)`` — the queries/commits.  Timed as ``wall_s``.
  Returns the raw result objects; it hashes, sorts and compares nothing.
* ``outputs(state, raw)`` — after the clock: canonical bytes per check.
* ``expected`` — ``{label: bytes}`` from the serial reference;
  ``ops`` — ``{label: operations the check covers}``.

Both timed halves call ``lap()`` after each step (an upload, a deploy, a
query, a commit), the same steps in the same order every round, so the
driver can keep each step's fastest time.  ``state.sim``, ``state.nodes``,
``state.cluster_clients`` and ``state.versioned`` are what the counter
snapshot in ``run.py`` reads.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.baselines.sql_model import execute_model
from repro.baselines.sw_ops import (software_groupby, software_project,
                                    software_select)
from repro.common.records import default_schema
from repro.common.units import KB, MB
from repro.core.api import (ClusterClient, FarviewClient,
                            canonical_result_bytes)
from repro.core.cluster import FarviewCluster
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.query import (Query, group_by_sum, select_distinct,
                              select_star)
from repro.core.table import FTable
from repro.experiments import fig19_shuffle, fig20_views
from repro.experiments.common import EXPERIMENT_CONFIG
from repro.operators.selection import And, Compare
from repro.sim.engine import Simulator
from repro.workloads import tpch
from repro.workloads.generator import (groupby_workload, make_rows,
                                       projection_workload,
                                       selection_workload)

#: Landing-buffer bytes per connection: the clients' default at full size;
#: the tiny size (contract test only) shrinks it with the tables.
LANDING = {"full": 8 * MB, "tiny": 256 * KB}


def _sorted_bytes(schema, rows: np.ndarray, key: str) -> bytes:
    """Row image ordered on a unique column: placement-independent."""
    return schema.to_bytes(rows[np.argsort(rows[key], kind="stable")])


def _run_all(sim: Simulator, generators) -> None:
    """Issue every generator as a simulated process at once; drain."""
    procs = [sim.process(gen) for gen in generators]
    sim.run()
    if not all(p.triggered for p in procs):
        raise RuntimeError("a simulated client never completed")


class ScanStream:
    """One node, warm, serial: raw read, smart-addressing projection,
    50% selection — the pure data plane (fig6 + fig7 + fig8).

    A dynamic region holds one pipeline, so the selection runs on a
    second connection: both pipelines stay resident and the measured
    passes pay no reconfiguration.
    """

    name = "scan_stream"

    def __init__(self, seed: int, size: str):
        full = size == "full"
        self.landing = LANDING[size]
        self.passes = 4 if full else 1
        read_bytes = (4 * MB) if full else 64 * KB
        wide_rows = 16_384 if full else 256
        sel_bytes = MB if full else 32 * KB

        self.read_schema = default_schema()
        self.read_rows = make_rows(self.read_schema,
                                   read_bytes // self.read_schema.row_width,
                                   seed=seed * 100)
        self.wide_schema, self.wide_rows = projection_workload(
            wide_rows, 512, seed=seed * 100 + 1)
        self.columns = list(self.wide_schema.names[:3])
        self.sel = selection_workload(sel_bytes // 64, selectivity=0.5,
                                      seed=seed * 100 + 2)
        self.scan_bytes = self.passes * (
            read_bytes + wide_rows * 512 + sel_bytes)

        projected = software_project(self.wide_rows, self.wide_schema,
                                     self.columns)
        images = {
            "read": self.read_schema.to_bytes(self.read_rows),
            "project": self.wide_schema.project(self.columns)
                           .to_bytes(projected),
            "select": self.sel.schema.to_bytes(
                software_select(self.sel.rows, self.sel.predicate)),
        }
        self.expected = {f"{label}{p}": image
                         for p in range(self.passes)
                         for label, image in images.items()}
        self.ops = dict.fromkeys(self.expected, 1)

    def setup(self, lap):
        sim = Simulator()
        node = FarviewNode(sim, EXPERIMENT_CONFIG)
        scan = FarviewClient(
            node, buffer_capacity=len(self.read_rows) * 64 + KB)
        scan.open_connection()
        selector = FarviewClient(node, buffer_capacity=self.landing)
        selector.open_connection()
        lap()

        read_table = FTable("read", self.read_schema, len(self.read_rows))
        scan.alloc_table_mem(read_table)
        scan.table_write(read_table, self.read_rows)
        lap()
        wide_table = FTable("wide", self.wide_schema, len(self.wide_rows))
        scan.alloc_table_mem(wide_table)
        scan.table_write(wide_table, self.wide_rows)
        lap()
        sel_table = FTable("sel", self.sel.schema, len(self.sel.rows))
        selector.alloc_table_mem(sel_table)
        selector.table_write(sel_table, self.sel.rows)
        lap()

        project = Query(projection=tuple(self.columns),
                        smart_addressing=True, label="bench-sa")
        select = select_star(self.sel.predicate)
        scan.far_view(wide_table, project)        # deploy
        lap()
        selector.far_view(sel_table, select)      # deploy
        return SimpleNamespace(
            sim=sim, nodes=[node], cluster_clients=[], versioned=[],
            scan=scan, selector=selector, read_table=read_table,
            wide_table=wide_table, sel_table=sel_table, project=project,
            select=select)

    def measure(self, st, lap):
        raw = []
        for _ in range(self.passes):
            raw.append(st.scan.table_read(st.read_table)[0])
            lap()
            raw.append(st.scan.far_view(st.wide_table, st.project)[0])
            lap()
            raw.append(st.selector.far_view(st.sel_table, st.select)[0])
            lap()
        return raw

    def outputs(self, st, raw):
        out = {}
        for p in range(self.passes):
            data, projected, selected = raw[3 * p:3 * p + 3]
            out[f"read{p}"] = data
            out[f"project{p}"] = canonical_result_bytes(projected)
            out[f"select{p}"] = canonical_result_bytes(selected)
        return out


class PoolScatter:
    """Four-node pool, six concurrent scatter-gather clients: DISTINCT,
    GROUP BY SUM and a 50% selection over chunk-partitioned tables
    (fig13's topology with fig9/fig8's query shapes).

    Each client owns one dynamic region per node and a region holds one
    pipeline, so each client keeps one query shape (two clients per
    shape): every pass issues all six at once with every pipeline warm.
    """

    name = "pool_scatter"
    NODES = 4
    CLIENTS = 6
    GROUPS = 64

    def __init__(self, seed: int, size: str):
        full = size == "full"
        self.landing = LANDING[size]
        self.passes = 4 if full else 1
        nrows = (MB if full else 16 * KB) // 64
        self.tables, self.queries = [], []
        self.expected, self.ops = {}, {}
        shapes = (select_distinct(["a"]), group_by_sum("a", "b"),
                  select_star(Compare("a", "<", self.GROUPS // 2)))
        for i in range(self.CLIENTS):
            schema, rows = groupby_workload(nrows, self.GROUPS,
                                            seed=seed * 100 + 3 * i)
            # Dyadic values: the shards' partial sums re-merge exactly.
            rows["b"] = np.floor(rows["b"] * 8.0) / 8.0
            query = shapes[i % len(shapes)]
            self.tables.append((schema, rows))
            self.queries.append(query)
            image = self._reference(schema, rows, query)
            for p in range(self.passes):
                self.expected[f"c{i}p{p}"] = image
                self.ops[f"c{i}p{p}"] = 1
        self.scan_bytes = self.passes * self.CLIENTS * nrows * 64

    @staticmethod
    def _reference(schema, rows, query) -> bytes:
        if query.distinct:
            out = schema.project(["a"]).empty(PoolScatter.GROUPS)
            out["a"] = np.unique(rows["a"])
            return out.tobytes()
        if query.group_by:
            grouped = software_groupby(rows, schema, ["a"],
                                       list(query.aggregates)).rows
            return grouped[np.argsort(grouped["a"], kind="stable")].tobytes()
        return schema.to_bytes(software_select(rows, query.predicate))

    def setup(self, lap):
        sim = Simulator()
        cluster = FarviewCluster(sim, self.NODES, EXPERIMENT_CONFIG)
        clients, tables = [], []
        for i, (schema, rows) in enumerate(self.tables):
            client = ClusterClient(cluster, buffer_capacity=self.landing)
            client.open_connection()
            lap()
            tables.append(client.create_table(f"T{i}", schema, rows))
            clients.append(client)
            lap()
        for client, table, query in zip(clients, tables, self.queries):
            client.far_view(table, query)         # deploy shard pipelines
            lap()
        return SimpleNamespace(
            sim=sim, nodes=cluster.nodes, cluster_clients=clients,
            versioned=[], tables=tables)

    def measure(self, st, lap):
        raw = {}

        def run_one(client, table, query, tag):
            raw[tag] = yield from client.far_view_proc(table, query)

        for p in range(self.passes):
            _run_all(st.sim, [
                run_one(client, table, query, (i, p))
                for i, (client, table, query) in enumerate(
                    zip(st.cluster_clients, st.tables, self.queries))])
            lap()
        return raw

    def outputs(self, st, raw):
        out = {}
        for (i, p), result in raw.items():
            rows = result.rows()
            if self.queries[i].distinct or self.queries[i].group_by:
                rows = rows[np.argsort(rows["a"], kind="stable")]
            out[f"c{i}p{p}"] = result.schema.to_bytes(rows)
        return out


class SqlJoin:
    """Four-node pools: mini TPC-H as SQL text under three placements
    (fig18, warm) then ``fact JOIN build`` cold under broadcast, shuffle
    and auto co-located (fig19 at half size)."""

    name = "sql_join"
    NODES = 4
    STRATEGIES = ("offload", "ship", "auto")
    QUERIES = (("Q1", tpch.q1_sql()), ("Q1-having", tpch.q1_having_sql()),
               ("Q3", tpch.q3_sql()), ("Q6", tpch.q6_sql()))
    #: (forced join strategy or None for the planner's choice, build spec)
    JOINS = {"broadcast": ("broadcast", PartitionSpec(replicas=1)),
             "shuffle": ("shuffle", PartitionSpec(replicas=1)),
             "auto": (None, PartitionSpec("hash", key="id", replicas=1))}

    def __init__(self, seed: int, size: str):
        full = size == "full"
        self.landing = LANDING[size]
        lineitems = 4096 if full else 128
        orders = max(16, lineitems // 5)
        customers = max(8, orders // 3)
        self.tables = {
            "lineitem": (tpch.LINEITEM_SCHEMA, tpch.lineitem_for_orders(
                lineitems, orders, seed=seed * 100)),
            "orders": (tpch.ORDERS_SCHEMA, tpch.orders(
                orders, customers, seed=seed * 100 + 2)),
            "customer": (tpch.CUSTOMER_SCHEMA, tpch.customer(
                customers, seed=seed * 100 + 3)),
        }
        fact_rows = ((256 if full else 8) * KB
                     // fig19_shuffle.FACT_SCHEMA.row_width)
        build_rows = max(64, fact_rows // 4)
        self.fact = fig19_shuffle.make_fact(fact_rows, key_range=build_rows,
                                            seed=seed * 100 + 4)
        self.dim = fig19_shuffle.make_dim(build_rows)

        self.expected, self.ops = {}, {}
        for label, stmt in self.QUERIES:
            schema, rows = execute_model(stmt, self.tables)
            for strategy in self.STRATEGIES:
                self.expected[f"{label}/{strategy}"] = schema.to_bytes(rows)
        joined = fig19_shuffle.serial_model(self.fact, self.dim)
        for label in self.JOINS:
            self.expected[f"join/{label}"] = _sorted_bytes(
                fig19_shuffle.JOINED_SCHEMA, joined, "seq")
        self.ops = dict.fromkeys(self.expected, 1)
        self.expected["join/placement"] = repr(
            ("colocated", True, True)).encode()
        self.ops["join/placement"] = 0
        sql_bytes = sum(len(rows) * schema.row_width
                        for schema, rows in self.tables.values())
        self.scan_bytes = (
            len(self.STRATEGIES) * len(self.QUERIES) * sql_bytes
            + len(self.JOINS) * fact_rows
            * fig19_shuffle.FACT_SCHEMA.row_width)

    def setup(self, lap):
        sim = Simulator()
        nodes, sql_clients, join_cells = [], {}, {}
        for strategy in self.STRATEGIES:
            cluster = FarviewCluster(sim, self.NODES, EXPERIMENT_CONFIG)
            nodes += cluster.nodes
            client = ClusterClient(cluster, buffer_capacity=self.landing)
            client.open_connection()
            lap()
            for name, (schema, rows) in self.tables.items():
                client.create_table(name, schema, rows)
            sql_clients[strategy] = client
            lap()
        for _label, stmt in self.QUERIES:         # deploy pass (cold)
            for strategy, client in sql_clients.items():
                client.sql(stmt, placement=strategy)
                lap()
        fact_spec = PartitionSpec("hash", key="key", replicas=2)
        for label, (_strategy, dim_spec) in self.JOINS.items():
            cluster = FarviewCluster(sim, self.NODES, EXPERIMENT_CONFIG)
            nodes += cluster.nodes
            client = ClusterClient(cluster, buffer_capacity=self.landing)
            client.open_connection()
            lap()
            dim = client.create_table("dim", fig19_shuffle.DIM_SCHEMA,
                                      self.dim, partition=dim_spec)
            fact = client.create_table("fact", fig19_shuffle.FACT_SCHEMA,
                                       self.fact, partition=fact_spec)
            join_cells[label] = (client, fact, dim)
            lap()
        return SimpleNamespace(
            sim=sim, nodes=nodes, versioned=[],
            cluster_clients=(list(sql_clients.values())
                             + [cell[0] for cell in join_cells.values()]),
            sql_clients=sql_clients, join_cells=join_cells)

    def measure(self, st, lap):
        raw = {}
        for label, stmt in self.QUERIES:
            for strategy, client in st.sql_clients.items():
                raw[f"{label}/{strategy}"] = client.sql(
                    stmt, placement=strategy)[0]
                lap()
        for label, (client, fact, dim) in st.join_cells.items():
            raw[f"join/{label}"] = client.far_view(
                fact, fig19_shuffle.join_query(dim),
                join_strategy=self.JOINS[label][0])[0]
            lap()
        return raw

    def outputs(self, st, raw):
        out = {}
        for tag, result in raw.items():
            if tag.startswith("join/"):
                out[tag] = _sorted_bytes(result.schema, result.rows(), "seq")
            else:
                out[tag] = canonical_result_bytes(result)
        moved = {label: cell[0].replica_bytes_moved
                 for label, cell in st.join_cells.items()}
        # fig19's placement invariants, as one more byte check.
        out["join/placement"] = repr(
            (raw["join/auto"].join_strategy, moved["auto"] == 0,
             moved["shuffle"] < moved["broadcast"])).encode()
        return out


class WriteViews:
    """One node, one client, writes beside reads: fig15's versioned
    sequence then fig20's mixed commit stream under a maintained view."""

    name = "write_views"
    ROUNDS = 4

    def __init__(self, seed: int, size: str):
        full = size == "full"
        self.landing = LANDING[size]
        self.schema = default_schema()
        self.nrows = ((MB if full else 32 * KB) // self.schema.row_width)
        self.rows = make_rows(self.schema, self.nrows, seed=seed * 100)
        self.rows["a"] = np.arange(self.nrows)
        self.view_rows = ((256 if full else 16) * KB
                          // fig20_views.BASE_SCHEMA.row_width)
        self.base = fig20_views.make_base(self.view_rows,
                                          seed=seed * 100 + 1)
        self.batch_rows = max(8, self.view_rows // 8)
        self.batches = [fig20_views.make_base(self.batch_rows,
                                              seed=seed * 100 + 2 + r)
                        for r in range(self.ROUNDS)]
        for r, batch in enumerate(self.batches):
            batch["k"] += self.view_rows + r * self.batch_rows
        self.scan_bytes = (3 * self.nrows * self.schema.row_width
                           + (self.view_rows
                              + self.ROUNDS * self.batch_rows)
                           * fig20_views.BASE_SCHEMA.row_width)
        self._reference()

    def _updates(self):
        per_batch = self.nrows // 8
        for b in range(4):
            yield (b * per_batch, (b + 1) * per_batch, 9000 + b)

    def _round_predicates(self, r: int):
        next_key = self.view_rows + (r + 1) * self.batch_rows
        return ((r + 1) * self.batch_rows // 2, 2.5 + r,
                next_key - self.batch_rows // 4)

    def _reference(self) -> None:
        model = self.rows.copy()
        for lo, hi, value in self._updates():
            model["c"][(model["a"] >= lo) & (model["a"] < hi)] = value
        half = model[model["a"] < self.nrows // 2]
        chain = self.schema.to_bytes(half)
        model["d"][model["b"] < 0.25] = 777
        compacted = self.schema.to_bytes(
            model[model["a"] < self.nrows // 2])
        self.expected = {"chain": chain, "under_update": chain,
                         "compacted": compacted}
        self.ops = {"chain": 1, "under_update": 2, "compacted": 2}

        current = self.base.copy()
        for r, batch in enumerate(self.batches):
            update_below, value, delete_from = self._round_predicates(r)
            current = np.concatenate([current, batch])
            current["val"][current["k"] < update_below] = value
            current = current[current["k"] < delete_from]
            schema, rows = execute_model(
                fig20_views.VIEW_SQL,
                {"t": (fig20_views.BASE_SCHEMA, current)})
            width = schema.row_width
            data = schema.to_bytes(rows)
            self.expected[f"view{r}"] = b"".join(sorted(
                data[i:i + width] for i in range(0, len(data), width)))
            self.ops[f"view{r}"] = 3 + (r == self.ROUNDS // 2)
        self.expected["subscriber"] = self.expected[f"view{self.ROUNDS - 1}"]
        self.ops["subscriber"] = 0
        self.expected["table"] = _sorted_bytes(
            fig20_views.BASE_SCHEMA, current, "k")
        self.ops["table"] = 0

    def setup(self, lap):
        sim = Simulator()
        node = FarviewNode(sim, EXPERIMENT_CONFIG)
        client = FarviewClient(node, buffer_capacity=self.landing)
        client.open_connection()
        lap()
        vt = client.create_versioned_table("T15", self.schema, self.rows)
        lap()
        query = Query(predicate=Compare("a", "<", self.nrows // 2),
                      label="bench-15")
        for lo, hi, value in self._updates():
            client.update_where(
                vt, And(Compare("a", ">=", lo), Compare("a", "<", hi)),
                {"c": value})
            lap()
        client.scan_versioned(vt, query)          # deploy
        lap()
        base = client.create_versioned_table(
            "t", fig20_views.BASE_SCHEMA, self.base)
        lap()
        view, _ = client.create_view(fig20_views.VIEW_SQL, name="bench20")
        sub = client.subscribe(view)              # auto: every commit pushes
        return SimpleNamespace(
            sim=sim, nodes=[node], cluster_clients=[], versioned=[vt, base],
            client=client, vt=vt, query=query, base=base, view=view,
            sub=sub)

    def measure(self, st, lap):
        client, vt, query = st.client, st.vt, st.query
        raw = {"chain": client.scan_versioned(vt, query)[0]}
        lap()

        def reader():
            raw["under_update"] = yield from client.scan_versioned_proc(
                vt, query, vt.epoch)

        def writer():
            yield from client.update_where_proc(
                vt, Compare("b", "<", 0.25), {"d": 777})

        _run_all(st.sim, [reader(), writer()])
        lap()
        client.compact(vt)
        lap()
        raw["compacted"] = client.scan_versioned(vt, query)[0]
        lap()

        for r, batch in enumerate(self.batches):
            update_below, value, delete_from = self._round_predicates(r)
            client.insert(st.base, batch)
            lap()
            client.update_where(st.base, Compare("k", "<", update_below),
                                {"val": value})
            lap()
            if r == self.ROUNDS // 2:
                client.compact(st.base)
                lap()
            client.delete_where(st.base, Compare("k", ">=", delete_from))
            raw[f"view{r}"] = st.view.contents.copy()
            lap()
        return raw

    def outputs(self, st, raw):
        out = {}
        for tag in ("chain", "under_update", "compacted"):
            out[tag] = _sorted_bytes(raw[tag].schema, raw[tag].rows(), "a")
        for r in range(self.ROUNDS):
            out[f"view{r}"] = raw[f"view{r}"].canonical_bytes()
        out["subscriber"] = st.sub.state.canonical_bytes()
        image, _ = st.client.read_version(st.base)
        out["table"] = _sorted_bytes(
            fig20_views.BASE_SCHEMA,
            fig20_views.BASE_SCHEMA.from_bytes(image, copy=True), "k")
        return out


WORKLOADS = {cls.name: cls for cls in
             (ScanStream, PoolScatter, SqlJoin, WriteViews)}
