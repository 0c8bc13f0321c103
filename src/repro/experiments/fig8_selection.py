"""Figure 8: selection response times at 100% / 50% / 25% selectivity (§6.4).

Query: ``SELECT * FROM S WHERE S.a < X AND S.b < Y`` over the paper's
default 64-byte tuples, table sizes 64 kB .. 1 MB, four systems:

* ``FV``   — Farview, standard execution model,
* ``FV-V`` — Farview, vectorized execution model,
* ``LCPU`` — local buffer cache + local CPU,
* ``RCPU`` — remote buffer cache + remote CPU + commercial NIC.

Expected shape: FV <= LCPU <= RCPU everywhere; FV-V ~ FV at 100%
(network-bound), slightly ahead at 50%, and ~2x ahead at 25%
(pipeline-bound vs memory-parallel).
"""

from __future__ import annotations

from ..baselines.lcpu import LcpuBaseline
from ..baselines.rcpu import RcpuBaseline
from ..core.query import select_star
from ..sim.stats import Series
from ..workloads.generator import selection_workload
from .common import ExperimentResult, make_bench, run_query_warm, upload_table, us

KB = 1024
TABLE_SIZES = (64 * KB, 128 * KB, 256 * KB, 512 * KB, 1024 * KB)
SELECTIVITIES = (1.0, 0.5, 0.25)
ROW_WIDTH = 64


def _fv_time(workload, vectorized: bool) -> float:
    bench = make_bench()
    table = upload_table(bench, "S", workload.schema, workload.rows)
    query = select_star(workload.predicate, vectorized=vectorized)
    result, elapsed = run_query_warm(bench, table, query)
    expected = int(workload.predicate.evaluate(workload.rows).sum())
    assert len(result.rows()) == expected
    return elapsed


def run_panel(selectivity: float,
              table_sizes=TABLE_SIZES) -> ExperimentResult:
    fv = Series("FV")
    fvv = Series("FV-V")
    lcpu_s = Series("LCPU")
    rcpu_s = Series("RCPU")
    lcpu = LcpuBaseline()
    rcpu = RcpuBaseline()
    for size in table_sizes:
        workload = selection_workload(size // ROW_WIDTH, selectivity)
        fv.add(size, us(_fv_time(workload, vectorized=False)))
        fvv.add(size, us(_fv_time(workload, vectorized=True)))
        _, t_l, _ = lcpu.select(workload.schema, workload.rows,
                                workload.predicate)
        lcpu_s.add(size, us(t_l))
        _, t_r, _ = rcpu.select(workload.schema, workload.rows,
                                workload.predicate)
        rcpu_s.add(size, us(t_r))
    pct = int(selectivity * 100)
    return ExperimentResult(
        experiment_id=f"fig8_{pct}pct",
        title=f"Selection response time, {pct}% selectivity",
        x_label="table [B]", y_label="us",
        series=[fv, fvv, lcpu_s, rcpu_s],
        notes=["FV <= LCPU <= RCPU; FV-V pulls ahead as selectivity drops"])


def run(table_sizes=TABLE_SIZES,
        selectivities=SELECTIVITIES) -> list[ExperimentResult]:
    return [run_panel(sel, table_sizes) for sel in selectivities]
