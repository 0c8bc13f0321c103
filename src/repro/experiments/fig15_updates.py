"""Figure 15 (extension): the versioned write path under churn.

The paper's evaluation is write-once; this experiment measures the
repo's MVCC write path (:mod:`repro.core.versioning`) along the two axes
that matter for a buffer-pool replacement serving a live engine:

* **fig15a — delta fraction.**  A 1 MB table accumulates copy-on-write
  update deltas; a warm offloaded selection scan is measured at each
  delta fraction (delta bytes / base bytes):

  - ``FV-deltas``    — delta-merge ingest of base + K delta segments,
  - ``FV-ship``      — raw segment reads + client-side software merge,
  - ``FV-compacted`` — the same scan after folding the chain into a
    fresh base segment,
  - ``compaction``   — the cost of that folding pass itself.

  Expected shape: scan latency grows with the delta fraction on both
  paths (every scan re-ingests the whole chain), the ship side grows
  faster (the client also pays the software merge, so the ship/offload
  crossover shifts with the delta fraction), and the compacted scan is
  flat — the compaction payoff is the gap, amortized over
  ``compaction / (FV-deltas - FV-compacted)`` scans.

* **fig15b — scan under update.**  Six clients run DISTINCT scans while
  each table's writer commits update batches concurrently (x = update
  batches per scan window).  Scans pin the epoch they start under; the
  run asserts every result is byte-identical to a quiesced re-execution
  at its pinned epoch — MVCC snapshot isolation, measured rather than
  assumed.  Latency rises with the update rate only through DRAM/link
  contention, never through result corruption.
"""

from __future__ import annotations

import numpy as np

from ..core.api import FarviewClient, canonical_result_bytes
from ..core.cost_model import PlanStats
from ..core.node import FarviewNode
from ..core.query import Query, select_distinct
from ..operators.selection import And, Compare
from ..sim.engine import Simulator
from ..sim.stats import Series
from ..workloads.generator import make_rows
from .common import EXPERIMENT_CONFIG, ExperimentResult, us

KB = 1024
MB = 1024 * KB

#: fig15a: base table size and the swept updated-row fractions.
TABLE_BYTES = 1 * MB
DELTA_FRACTIONS = (0.0, 0.125, 0.25, 0.5, 1.0)
#: Update batches per sweep point (the chain depth K at full fraction).
UPDATE_BATCHES = 4

#: fig15b: per-client table size, client count, swept writer rates.
SCAN_TABLE_BYTES = 256 * KB
NUM_CLIENTS = 6
UPDATE_RATES = (0, 1, 2, 4, 8)
DISTINCT_VALUES = 64

ROW_WIDTH = 64


def _versioned_bench(name: str, num_rows: int, seed: int,
                     sim: Simulator | None = None,
                     distinct_values: int | None = None):
    """One client + node with a freshly created versioned table."""
    from ..common.records import default_schema

    sim = sim if sim is not None else Simulator()
    node = FarviewNode(sim, EXPERIMENT_CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    schema = default_schema()
    rows = make_rows(schema, num_rows, seed=seed)
    rows["a"] = np.arange(num_rows)      # deterministic update targets
    if distinct_values is not None:
        rows["c"] = np.arange(num_rows) % distinct_values
    vt = client.create_table(name, schema, rows)
    return client, vt, rows


def _apply_update_batches(client: FarviewClient, vt, num_rows: int,
                          fraction: float, batches: int = UPDATE_BATCHES):
    """Commit ``batches`` update deltas touching ``fraction`` of the rows."""
    per_batch = int(fraction * num_rows / batches)
    for b in range(batches):
        if per_batch == 0:
            break
        lo, hi = b * per_batch, (b + 1) * per_batch
        client.update_where(
            vt, And(Compare("a", ">=", lo), Compare("a", "<", hi)),
            {"c": 9_000 + b})


def delta_point(fraction: float,
                table_bytes: int = TABLE_BYTES) -> dict[str, float]:
    """One fig15a sweep point; returns per-strategy elapsed ns."""
    num_rows = table_bytes // ROW_WIDTH
    client, vt, _rows = _versioned_bench("T15", num_rows, seed=15)
    query = Query(predicate=Compare("a", "<", num_rows // 2), label="fig15")
    stats = PlanStats(selectivity=0.5)
    _apply_update_batches(client, vt, num_rows, fraction)

    client.far_view(vt, query)                    # deploy (warm the region)
    deltas_result, t_deltas = client.far_view(vt, query)
    ship_result, t_ship = client.far_view_planned(vt, query,
                                                  placement="ship",
                                                  stats=stats)
    assert (canonical_result_bytes(ship_result)
            == canonical_result_bytes(deltas_result)), \
        "ship merge changed result bytes"
    _epoch, t_compact = client.compact(vt)
    compacted_result, t_compacted = client.far_view(vt, query)
    assert compacted_result.data == deltas_result.data, \
        "compaction changed result bytes"
    return {
        "deltas": t_deltas,
        "ship": t_ship,
        "compacted": t_compacted,
        "compaction": t_compact,
    }


def run_delta_sweep(fractions=DELTA_FRACTIONS,
                    table_bytes: int = TABLE_BYTES) -> ExperimentResult:
    deltas = Series("FV-deltas")
    ship = Series("FV-ship")
    compacted = Series("FV-compacted")
    compaction = Series("compaction")
    num_rows = table_bytes // ROW_WIDTH
    for fraction in fractions:
        # Recompute the x value exactly as the chain will see it: K update
        # deltas of (rowid + row) images over the base image.
        per_batch = int(fraction * num_rows / UPDATE_BATCHES)
        delta_bytes = (UPDATE_BATCHES * per_batch * (ROW_WIDTH + 8)
                       if per_batch else 0)
        x = delta_bytes / table_bytes
        times = delta_point(fraction, table_bytes)
        deltas.add(x, us(times["deltas"]))
        ship.add(x, us(times["ship"]))
        compacted.add(x, us(times["compacted"]))
        compaction.add(x, us(times["compaction"]))
    return ExperimentResult(
        experiment_id="fig15a",
        title=(f"scan latency vs delta fraction, "
               f"{table_bytes // KB} kB base, warm region"),
        x_label="delta fraction", y_label="us",
        series=[deltas, ship, compacted, compaction],
        notes=[
            "FV-deltas: delta-merge ingest of base + K deltas; FV-ship "
            "adds the client-side software merge (crossover shifts with "
            "the delta fraction)",
            "FV-compacted: same scan after folding the chain; payoff "
            "amortizes over compaction/(FV-deltas - FV-compacted) scans",
        ])


def scan_under_update_time(num_updates: int,
                           table_bytes: int = SCAN_TABLE_BYTES,
                           num_clients: int = NUM_CLIENTS) -> float:
    """fig15b: completion time of six DISTINCT scans with live writers.

    Every scan pins its start epoch; after the run each result is
    checked byte-identical to a quiesced re-execution at that epoch.
    """
    sim = Simulator()
    num_rows = table_bytes // ROW_WIDTH
    clients, tables = [], []
    for i in range(num_clients):
        client, vt, _rows = _versioned_bench(
            f"T15b_{i}", num_rows, seed=i, sim=sim,
            distinct_values=DISTINCT_VALUES)
        clients.append(client)
        tables.append(vt)
    query = select_distinct(["c"])
    for client, vt in zip(clients, tables):
        client.far_view(vt, query)         # deploy all pipelines first

    results: dict[int, object] = {}
    pinned: dict[int, int] = {}

    def reader(i):
        vt = tables[i]
        pinned[i] = vt.epoch
        result = yield from clients[i].far_view_planned_proc(
            vt, query, "offload", as_of=pinned[i])
        results[i] = result

    def writer(i):
        for batch in range(num_updates):
            hi = (batch + 1) * max(1, num_rows // (2 * max(num_updates, 1)))
            yield from clients[i].update_where_proc(
                tables[i], Compare("a", "<", hi),
                {"c": batch % DISTINCT_VALUES})

    start = sim.now
    procs = [sim.process(reader(i)) for i in range(num_clients)]
    procs += [sim.process(writer(i)) for i in range(num_clients)]
    sim.run()
    assert all(p.triggered for p in procs)
    elapsed = sim.now - start

    for i in range(num_clients):
        replay, _ = clients[i].far_view_planned(tables[i], query,
                                                "offload", as_of=pinned[i])
        assert replay.data == results[i].data, (
            f"client {i}: scan under {num_updates} updates diverged from "
            f"its pinned epoch {pinned[i]}")
    return elapsed


def run_scan_under_update(rates=UPDATE_RATES,
                          table_bytes: int = SCAN_TABLE_BYTES
                          ) -> ExperimentResult:
    latency = Series("FV-under-update")
    for rate in rates:
        latency.add(rate, us(scan_under_update_time(rate, table_bytes)))
    return ExperimentResult(
        experiment_id="fig15b",
        title=(f"{NUM_CLIENTS} clients: DISTINCT under concurrent update "
               f"batches, {table_bytes // KB} kB tables"),
        x_label="update batches per scan window", y_label="us",
        series=[latency],
        notes=[
            "every scan verified byte-identical to a quiesced "
            "re-execution at its pinned epoch (snapshot isolation)",
            "latency grows only through DRAM/link contention with the "
            "writers, never through retries or result corruption",
        ])


def run() -> list[ExperimentResult]:
    return [run_delta_sweep(), run_scan_under_update()]
