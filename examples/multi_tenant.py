"""Multi-tenant pool: six clients share one Farview node (§6.8).

Each client gets its own dynamic region, protection domain and queue pair.
The experiment shows three properties from the paper:

* **isolation** — a client cannot read another client's table
  (protection domains, §4.4);
* **concurrency** — six DISTINCT queries execute simultaneously; the
  fair-share arbiters split DRAM/network bandwidth so completion times
  stay tightly grouped (§4.3);
* **elastic regions** — closing a connection frees its region for the
  next tenant, and a seventh concurrent tenant is refused while all six
  regions are busy.

Run:  python examples/multi_tenant.py
"""

from repro.common.errors import RegionUnavailableError, TranslationFault
from repro.common.units import to_us
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import select_distinct
from repro.core.table import FTable
from repro.sim.engine import Simulator
from repro.workloads.generator import distinct_workload

NUM_CLIENTS = 6
ROWS = 8_192  # 512 kB per tenant


def main() -> None:
    sim = Simulator()
    node = FarviewNode(sim)
    clients: list[FarviewClient] = []
    tables: list[FTable] = []

    for i in range(NUM_CLIENTS):
        client = FarviewClient(node)
        client.open_connection()
        schema, rows = distinct_workload(ROWS, 128, seed=i)
        table = FTable(f"tenant{i}", schema, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        clients.append(client)
        tables.append(table)
    print(f"{NUM_CLIENTS} tenants connected; free regions: "
          f"{node.free_regions}")

    # ---- isolation: addresses are per protection domain --------------------------
    # Both tenants' tables sit at the same *virtual* address, but each
    # domain translates it to its own physical pages: tenant 1 reading
    # tenant 0's vaddr sees its own bytes, never tenant 0's.
    via_0 = node.mmu.image(clients[0].connection.domain, tables[0].vaddr, 64)
    via_1 = node.mmu.image(clients[1].connection.domain, tables[0].vaddr, 64)
    assert via_0 != via_1, "domains must map the same vaddr differently"
    print("isolation: identical vaddr resolves to different tenants' pages")
    # And an address a tenant never allocated faults outright.
    try:
        node.mmu.image(clients[1].connection.domain, 1 << 40, 64)
        raise AssertionError("isolation violated!")
    except TranslationFault:
        print("isolation: unmapped address raises TranslationFault")

    # ---- a seventh tenant is refused while regions are full ---------------------
    try:
        FarviewClient(node).open_connection()
        raise AssertionError("expected region exhaustion")
    except RegionUnavailableError:
        print(f"admission control: tenant {NUM_CLIENTS} refused "
              f"(all regions busy)")

    # ---- six concurrent DISTINCT queries -----------------------------------------
    query = select_distinct(["a"])
    for client, table in zip(clients, tables):
        client.far_view(table, query)  # deploy pipelines (ms, one-off)

    finish_times: dict[int, float] = {}

    def run_tenant(idx: int):
        result = yield from clients[idx].far_view_proc(tables[idx], query)
        assert len(result.rows()) == 128
        finish_times[idx] = sim.now

    start = sim.now
    for i in range(NUM_CLIENTS):
        sim.process(run_tenant(i))
    sim.run()

    times_us = {i: to_us(t - start) for i, t in finish_times.items()}
    spread = max(times_us.values()) - min(times_us.values())
    print("\nconcurrent DISTINCT per tenant:")
    for i in sorted(times_us):
        print(f"  tenant {i}: {times_us[i]:8.1f} us")
    print(f"fairness spread: {spread:.1f} us "
          f"({spread / max(times_us.values()):.1%} of the slowest)")

    # ---- release a region and admit the waiting tenant -----------------------------
    clients[0].close_connection()
    late = FarviewClient(node)
    late.open_connection()
    print(f"\ntenant 0 left; late tenant admitted "
          f"(region {late.connection.region.index}). done.")


if __name__ == "__main__":
    main()
