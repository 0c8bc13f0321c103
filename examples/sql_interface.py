"""SQL interface: the query-compiler front end over the offload path.

The paper's data API "is intended to be used by the query compiler in
Farview" (§4.2, future work).  This example drives the reproduction's SQL
front end: statements are parsed, validated against the catalog, compiled
into operator pipelines, and executed on the simulated node — including a
LIKE predicate that compiles onto the FPGA regex engine.

Run:  python examples/sql_interface.py
"""

import numpy as np

from repro.common.records import Column, Schema
from repro.common.units import to_us
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.compile import SqlSyntaxError, parse_sql
from repro.sim.engine import Simulator

SCHEMA = Schema([
    Column("id", "int64"),
    Column("price", "float64"),
    Column("qty", "int64"),
    Column("region", "int64"),
    Column("label", "char", 32),
])

STATEMENTS = [
    "SELECT * FROM orders WHERE price < 100.0 AND qty >= 5",
    "SELECT id, price FROM orders WHERE region = 2",
    "SELECT DISTINCT region FROM orders",
    "SELECT region, COUNT(*) AS n, SUM(price) AS revenue "
    "FROM orders GROUP BY region",
    "SELECT * FROM orders WHERE label LIKE '%gold%'",
]


def make_orders(n: int) -> np.ndarray:
    rng = np.random.default_rng(21)
    rows = SCHEMA.empty(n)
    rows["id"] = np.arange(n)
    rows["price"] = rng.random(n) * 500.0
    rows["qty"] = rng.integers(1, 20, n)
    rows["region"] = rng.integers(0, 5, n)
    tiers = [b"bronze tier", b"silver tier", b"gold member", b"basic"]
    rows["label"] = [tiers[i] for i in rng.integers(0, len(tiers), n)]
    return rows


def main() -> None:
    sim = Simulator()
    node = FarviewNode(sim)
    client = FarviewClient(node)
    client.open_connection()

    from repro.core.table import FTable
    rows = make_orders(8_192)
    table = FTable("orders", SCHEMA, len(rows))
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    print(f"orders: {len(rows)} rows x {SCHEMA.row_width} B\n")

    for statement in STATEMENTS:
        result, elapsed = client.sql(statement)
        out = result.rows()
        print(f"sql> {statement}")
        print(f"     pipeline: {result.report.signature}")
        print(f"     {len(out)} rows, {result.report.bytes_shipped} bytes "
              f"shipped, {to_us(elapsed):.1f} us simulated")
        preview = out[:3].tolist()
        for row in preview:
            print(f"       {row}")
        if len(out) > 3:
            print(f"       ... ({len(out) - 3} more)")
        print()

    # The parser rejects what the offload engine cannot run.
    for bad in ("SELECT a FROM t WHERE s LIKE 'x' OR a < 1",
                "SELECT a, SUM(b) FROM t"):
        try:
            parse_sql(bad)
        except SqlSyntaxError as exc:
            print(f"rejected as expected: {bad!r}\n  -> {exc}")

    print("\ndone.")


if __name__ == "__main__":
    main()
