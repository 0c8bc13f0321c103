"""Quickstart: connect, upload a table, run offloaded queries.

Walks the paper's data API end to end (§4.2): open a connection to a
Farview node, allocate disaggregated memory for a table, write it, then
run a plain RDMA read and three offloaded queries (selection, distinct,
group-by) and compare against locally computed answers.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.common.expr import eval_mask
from repro.common.units import to_us
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import group_by_sum, select_distinct, select_star
from repro.core.table import FTable
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import make_rows
from repro.common.records import default_schema


def main() -> None:
    # --- stand up a Farview node and connect a client ------------------------
    sim = Simulator()
    node = FarviewNode(sim)
    client = FarviewClient(node)
    client.open_connection()
    print(f"connected: {client.connection.qp}")

    # --- create a table in disaggregated memory ------------------------------
    schema = default_schema()           # 8 attributes x 8 bytes (paper §6.2)
    rows = make_rows(schema, 8192)      # 512 kB
    table = FTable("sensors", schema, len(rows))
    client.alloc_table_mem(table)
    nbytes, t_write = client.table_write(table, rows)
    print(f"uploaded {nbytes} bytes in {to_us(t_write):.1f} us "
          f"(vaddr {table.vaddr:#x})")

    # --- plain RDMA read (Farview as a dumb remote buffer pool) --------------
    data, t_read = client.table_read(table)
    assert data == schema.to_bytes(rows)
    print(f"raw read: {len(data)} bytes in {to_us(t_read):.1f} us "
          f"({len(data) / t_read:.1f} GB/s)")

    # --- offloaded selection: SELECT * WHERE a < 2^30 -------------------------
    predicate = Compare("a", "<", 2**30)
    result, t_sel = client.far_view(table, select_star(predicate))
    expected = rows[eval_mask(predicate, rows)]
    assert np.array_equal(result.rows()["a"], expected["a"])
    print(f"selection: {len(expected)}/{len(rows)} rows shipped in "
          f"{to_us(t_sel):.1f} us (first run includes the ms-scale "
          f"pipeline load)")
    result, t_sel = client.far_view(table, select_star(predicate))
    print(f"selection (warm): {to_us(t_sel):.1f} us, "
          f"{result.report.bytes_shipped} bytes over the network instead "
          f"of {table.size_bytes}")

    # --- offloaded DISTINCT ----------------------------------------------------
    result, t_d = client.far_view(table, select_distinct(["c"]))
    client_side = len(set(rows["c"].tolist()))
    assert result.num_rows == client_side
    print(f"distinct(c): {result.num_rows} values in {to_us(t_d):.1f} us")

    # --- offloaded GROUP BY + SUM ----------------------------------------------
    small = rows.copy()
    small["a"] = small["a"] % 8        # 8 groups
    grouped_table = FTable("grouped", schema, len(small))
    client.alloc_table_mem(grouped_table)
    client.table_write(grouped_table, small)
    result, t_g = client.far_view(grouped_table, group_by_sum("a", "b"))
    got = {int(k): float(v)
           for k, v in zip(result.rows()["a"], result.rows()["sum_b"])}
    expected_sums: dict[int, float] = {}
    for k, v in zip(small["a"], small["b"]):
        expected_sums[int(k)] = expected_sums.get(int(k), 0.0) + float(v)
    assert all(abs(got[k] - expected_sums[k]) < 1e-6 for k in expected_sums)
    print(f"group-by: {result.num_rows} groups in {to_us(t_g):.1f} us")

    client.close_connection()
    print("done.")


if __name__ == "__main__":
    main()
