"""Analytical query offloading: TPC-H-style Q6 and Q1 fragments.

The paper motivates Farview with exactly these two query shapes (§1, §5):

* **Q6** — a highly selective scan (~2% of tuples survive): pushing the
  filter into disaggregated memory slashes network traffic by ~50x.
* **Q1** — GROUP BY with aggregation over two flag columns: the entire
  table collapses to six result rows before touching the network.

The example reports the data-movement savings and compares Farview
against the LCPU/RCPU baselines on the same workload.

Run:  python examples/analytics_offload.py
"""

from repro.baselines.lcpu import LcpuBaseline
from repro.baselines.rcpu import RcpuBaseline
from repro.common.units import to_us
from repro.core.api import FarviewClient
from repro.core.compile import BoundFilter
from repro.core.node import FarviewNode
from repro.core.table import FTable
from repro.sim.engine import Simulator
from repro.workloads.tpch import LINEITEM_SCHEMA, lineitem, q1_query, q6_query

NUM_ROWS = 16_384  # 1 MB of lineitem


def main() -> None:
    sim = Simulator()
    node = FarviewNode(sim)
    client = FarviewClient(node)
    client.open_connection()

    rows = lineitem(NUM_ROWS)
    table = FTable("lineitem", LINEITEM_SCHEMA, len(rows))
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    print(f"lineitem: {NUM_ROWS} rows, {table.size_bytes} bytes")

    # ---- Q6: selective scan ---------------------------------------------------
    q6 = q6_query()
    client.far_view(table, q6)                       # deploy pipeline
    result, elapsed = client.far_view(table, q6)     # warm measurement
    survivors = result.rows()
    selectivity = len(survivors) / NUM_ROWS
    revenue = float((survivors["extendedprice"] * survivors["discount"]).sum())
    reduction = table.size_bytes / max(1, result.report.bytes_shipped)
    print(f"\nQ6 fragment: {len(survivors)} rows ({selectivity:.1%} "
          f"selectivity, paper quotes ~2%)")
    print(f"  revenue = {revenue:,.2f}")
    print(f"  FV: {to_us(elapsed):.1f} us; network traffic reduced "
          f"{reduction:.0f}x by the pushdown")

    steps = [BoundFilter(q6.predicate)]
    _, t_l, _ = LcpuBaseline().run(LINEITEM_SCHEMA, rows, steps)
    _, t_r, _ = RcpuBaseline().run(LINEITEM_SCHEMA, rows, steps)
    print(f"  LCPU: {to_us(t_l):.1f} us   RCPU: {to_us(t_r):.1f} us")

    # ---- Q1: group-by aggregation ------------------------------------------------
    q1 = q1_query()
    client.far_view(table, q1)
    result, elapsed = client.far_view(table, q1)
    groups = result.rows()
    print(f"\nQ1 fragment: {len(groups)} groups "
          f"(returnflag x linestatus) in {to_us(elapsed):.1f} us, "
          f"{result.report.bytes_shipped} bytes shipped")
    for row in sorted(groups.tolist()):
        flag, status, qty, price, disc, count = row
        print(f"  flag={flag} status={status}: count={count}, "
              f"sum_qty={qty:,.0f}, avg_disc={disc:.3f}")

    # Validate against a straightforward pandas-style computation.
    check: dict[tuple[int, int], int] = {}
    for r in rows:
        key = (int(r["returnflag"]), int(r["linestatus"]))
        check[key] = check.get(key, 0) + 1
    got = {(int(g["returnflag"]), int(g["linestatus"])): int(g["count_order"])
           for g in groups}
    assert got == check, "group-by result mismatch"
    print("\nQ1 counts verified against local recomputation. done.")


if __name__ == "__main__":
    main()
