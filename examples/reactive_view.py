"""Reactive views: incremental maintenance over the versioned write path.

A materialized view registered against a versioned table is kept fresh
without rescanning: every committed write batch ships only its delta
segment to the client, which folds it through a Z-set circuit
(docs/VIEWS.md) and pushes the incremental update to subscribers.  This
example registers a GROUP BY view over an orders table, streams mixed
insert / update / delete commits through it — compacting the chain
mid-stream — and checks after every commit that the incrementally
maintained image is byte-identical to a full rescan at the same epoch.
A second view beside it — a filtered join with an expression aggregate
over a small plain ``regions`` table — runs every kind of circuit stage
(mask, map, join, group) and is checked against ``client.sql()`` of the
same statement: the engine is the oracle.

Run:  python examples/reactive_view.py
"""

import numpy as np

from repro.common.records import Column, Schema
from repro.common.units import to_us
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.zset import ZSet
from repro.operators.selection import Compare
from repro.sim.engine import Simulator

SCHEMA = Schema([
    Column("id", "int64"),
    Column("region", "int64"),
    Column("price", "float64"),
])

VIEW_SQL = ("SELECT region, COUNT(*) AS n, SUM(price) AS revenue "
            "FROM orders GROUP BY region")

REGIONS = Schema([
    Column("region", "int64"),
    Column("tax", "float64"),
])

TAXED_SQL = ("SELECT orders.region, SUM(price * tax) AS taxed "
             "FROM orders JOIN regions ON orders.region = regions.region "
             "WHERE price < 90.0 GROUP BY orders.region")


def make_orders(n: int, seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = SCHEMA.empty(n)
    rows["id"] = np.arange(n)
    rows["region"] = rng.integers(0, 4, n)
    # Dyadic prices keep the incremental SUM bit-exact.
    rows["price"] = rng.integers(1, 400, n) * 0.25
    return rows


def make_regions() -> np.ndarray:
    rows = REGIONS.empty(4)
    rows["region"] = np.arange(4)
    rows["tax"] = 1.0 + 0.25 * np.arange(4)     # dyadic, like the prices
    return rows


def sql_sha256(client, sql: str) -> str:
    """sha256 of the sorted row images the engine returns for ``sql`` —
    the canonical form a view hashes."""
    result, _ = client.sql(sql)
    return ZSet.from_rows(result.schema, result.rows()).sha256()


def show(view) -> None:
    for region, n, revenue in view.materialize().tolist():
        print(f"       region {region}: {n:4d} orders, "
              f"revenue {revenue:10.2f}")


def main() -> None:
    sim = Simulator()
    client = FarviewClient(FarviewNode(sim))
    client.open_connection()

    orders = client.create_table("orders", SCHEMA, make_orders(4_096))
    view, elapsed = client.create_view(VIEW_SQL, name="revenue_by_region")
    sub = client.subscribe(view)  # auto: every commit pushes an update
    print(f"view {view.name!r} bootstrapped from epoch {orders.epoch}: "
          f"{view.num_rows} rows, {view.bootstrap_bytes} bytes read, "
          f"{to_us(elapsed):.1f} us simulated")
    show(view)

    client.create_table("regions", REGIONS, make_regions())
    taxed, _ = client.create_view(TAXED_SQL, name="taxed_by_region")
    client.subscribe(taxed)  # an unsubscribed view does not advance
    stages = ", ".join(type(stage).__name__
                       for stage in taxed.circuit.stages)
    print(f"view {taxed.name!r} beside it: {stages}")

    next_id = orders.num_rows
    for round_index in range(4):
        batch = make_orders(256, seed=100 + round_index)
        batch["id"] += next_id
        next_id += 256
        client.insert(orders, batch)
        client.update_where(orders, Compare("id", "<", 512),
                            {"price": 99.75 + round_index})
        if round_index == 2:
            client.compact(orders)  # trackers pin the chain across it
        client.delete_where(orders, Compare("id", ">=", next_id - 64))

        # The incrementally maintained image must match a full rescan
        # (a fresh bootstrap) at the same epoch, byte for byte.
        rescan, _ = client.create_view(VIEW_SQL, name="rescan")
        assert view.sha256() == rescan.sha256() == sub.sha256()
        client.drop_view(rescan)
        print(f"round {round_index}: epoch {orders.epoch}, "
              f"{sub.updates_received} pushes, "
              f"{sub.rows_pushed} delta rows pushed "
              f"({sub.bytes_pushed} bytes) — matches rescan")
        assert taxed.sha256() == sql_sha256(client, TAXED_SQL)
        print(f"         {taxed.name!r}: {taxed.num_rows} rows — matches "
              f"client.sql() of the same statement")

    print("\nfinal view (incremental == rescan at every epoch):")
    show(view)
    print(f"\nsubscriber folded {sub.rows_pushed} pushed delta rows; the "
          f"table holds {orders.num_rows} rows — the push traffic tracks "
          f"the churn, not the table.")
    print("done.")


if __name__ == "__main__":
    main()
