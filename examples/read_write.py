"""Read/write: MVCC snapshots, scan-under-update, and compaction.

Walks the versioned write path end to end: create a versioned table,
commit insert/update/delete deltas (each advances the epoch), read
historical snapshots with ``as_of``, run a scan that stays byte-exact
while a writer commits mid-scan, and fold the delta chain with a
background compaction — printing the epoch lifecycle along the way.

Run:  python examples/read_write.py
"""

import hashlib

import numpy as np

from repro.common.records import default_schema
from repro.common.units import to_us
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import Query, select_distinct
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import make_rows


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def main() -> None:
    # --- a node, a client, and a *versioned* table ---------------------------
    sim = Simulator()
    node = FarviewNode(sim)
    client = FarviewClient(node)
    client.open_connection()

    schema = default_schema()
    rows = make_rows(schema, 4096, seed=42)
    rows["a"] = np.arange(4096)
    rows["c"] = rows["a"] % 32
    table = client.create_table("events", schema, rows)
    print(f"created {table!r}")

    # --- write verbs: each commit is a delta segment + an epoch bump ---------
    extra = make_rows(schema, 256, seed=43)
    extra["a"] = np.arange(10_000, 10_256)
    extra["c"] = extra["a"] % 32
    epoch, t_ins = client.insert(table, extra)
    print(f"INSERT 256 rows        -> epoch {epoch} "
          f"({to_us(t_ins):.1f} us, {table.num_deltas} delta segment(s))")

    epoch, t_upd = client.update_where(table, Compare("a", "<", 100),
                                       {"c": 999})
    print(f"UPDATE a<100 SET c=999 -> epoch {epoch} ({to_us(t_upd):.1f} us)")

    epoch, t_del = client.delete_where(table, Compare("a", ">=", 10_200))
    print(f"DELETE a>=10200        -> epoch {epoch} ({to_us(t_del):.1f} us, "
          f"{table.num_rows} rows visible)")

    # --- MVCC: as_of reads reconstruct any committed epoch -------------------
    full_scan = Query(projection=tuple(schema.names), label="read")
    for as_of in range(epoch + 1):
        result, _ = client.far_view_planned(table, full_scan, "offload",
                                             as_of=as_of)
        print(f"  as_of({as_of}): {result.num_rows} rows, "
              f"sha256 {sha(result.data)}")
    snap0, _ = client.table_read(table, as_of=0)
    assert snap0 == schema.to_bytes(rows), "epoch 0 must be pristine"

    # --- scan-under-update: the scan pins the epoch it started under ---------
    distinct = select_distinct(["c"])
    client.far_view(table, distinct)        # deploy the pipeline
    captured = {}

    def reader():
        captured["epoch"] = table.epoch
        result = yield from client.far_view_proc(table, distinct)
        captured["result"] = result

    def writer():
        new_epoch = yield from client.update_where_proc(
            table, Compare("a", "<", 2000), {"c": 1000})
        print(f"  writer committed epoch {new_epoch} while the scan ran")

    procs = [sim.process(reader()), sim.process(writer())]
    sim.run()
    assert all(p.triggered for p in procs)
    replay, _ = client.far_view_planned(table, distinct, "offload",
                                        as_of=captured["epoch"])
    assert replay.data == captured["result"].data
    print(f"scan pinned epoch {captured['epoch']}: result sha256 "
          f"{sha(captured['result'].data)} == quiesced replay "
          f"{sha(replay.data)} (snapshot isolation)")

    # --- compaction: fold the chain, same bytes, fewer segments --------------
    before, _ = client.far_view(table, full_scan)
    epoch, t_cmp = client.compact(table)
    after, t_scan = client.far_view(table, full_scan)
    assert after.data == before.data, "compaction must not change contents"
    print(f"compacted in {to_us(t_cmp):.1f} us -> epoch still {epoch}, "
          f"{table.num_deltas} deltas, scan now {to_us(t_scan):.1f} us, "
          f"bytes unchanged ({sha(after.data)})")

    client.drop_table("events")
    print("done.")


if __name__ == "__main__":
    main()
