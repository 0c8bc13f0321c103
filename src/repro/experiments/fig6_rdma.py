"""Figure 6: RDMA read throughput and response time, FV vs RNIC (§6.2).

* 6(a) — median throughput of RDMA reads vs transfer size.  Farview is
  measured on the simulated node with a window of outstanding requests
  (the standard way to saturate an RDMA path); RNIC uses the calibrated
  ConnectX-5 model.
* 6(b) — median response time of a single RDMA read vs transfer size.

Expected shape (paper): RNIC slightly ahead below ~4 kB (specialized
circuitry), FV peaks at ~12 GBps vs RNIC's ~11 GBps (PCIe-bound); FV's
response time at large transfers is >= 20 % lower, with a knee above 8 kB.
"""

from __future__ import annotations

from ..baselines.rnic import RnicBaseline
from ..common import calibration as cal
from ..common.records import wide_schema
from ..core.table import FTable
from ..sim.resources import CreditPool
from ..sim.stats import Series
from ..workloads.generator import make_rows
from .common import Bench, ExperimentResult, make_bench, upload_table, us

KB = 1024

#: Transfer sizes for the throughput panel (paper: 128 B .. 8 kB+).
THROUGHPUT_SIZES = (128, 256, 512, 1 * KB, 2 * KB, 4 * KB, 8 * KB,
                    16 * KB, 32 * KB)
#: Transfer sizes for the response-time panel (paper: 512 B .. 32 kB).
RESPONSE_SIZES = (512, 1 * KB, 2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB)


def _upload_raw(bench: Bench, size: int) -> FTable:
    schema = wide_schema(64)
    rows = make_rows(schema, size // 64)
    return upload_table(bench, f"raw{size}", schema, rows)


def fv_response_time_ns(size: int) -> float:
    """One RDMA read of ``size`` bytes from the Farview node."""
    bench = make_bench()
    table = _upload_raw(bench, size)
    data, elapsed = bench.client.table_read(table)
    assert len(data) == size
    return elapsed


def fv_throughput_gbps(size: int, window: int = cal.THROUGHPUT_WINDOW,
                       total_requests: int = 96) -> float:
    """Sustained read throughput with ``window`` outstanding requests.

    Measured in steady state: the ramp while the window fills (the first
    ``window`` completions) is excluded, as RDMA benchmarks do.
    """
    bench = make_bench()
    table = _upload_raw(bench, size)
    bench.client.table_read(table)  # warm (allocator, TLB)
    sim, node, client = bench.sim, bench.node, bench.client
    conn = client.connection
    inflight = CreditPool(sim, window)
    completions = []

    def one_read():
        yield from node.serve_read(conn, table)
        completions.append(sim.now)
        inflight.release()

    def driver():
        for _ in range(total_requests):
            yield inflight.acquire()
            sim.process(one_read())

    sim.process(driver())
    sim.run()
    assert len(completions) == total_requests
    steady_start = completions[window - 1]
    elapsed = completions[-1] - steady_start
    return (total_requests - window) * size / elapsed


def run(sizes_throughput=THROUGHPUT_SIZES,
        sizes_response=RESPONSE_SIZES) -> tuple[ExperimentResult,
                                                ExperimentResult]:
    rnic = RnicBaseline()

    tput_fv = Series("FV")
    tput_rnic = Series("RNIC")
    for size in sizes_throughput:
        tput_fv.add(size, fv_throughput_gbps(size))
        tput_rnic.add(size, rnic.read_throughput_gbps(size))

    resp_fv = Series("FV")
    resp_rnic = Series("RNIC")
    for size in sizes_response:
        resp_fv.add(size, us(fv_response_time_ns(size)))
        resp_rnic.add(size, us(rnic.read_response_time_ns(size)))

    fig6a = ExperimentResult(
        experiment_id="fig6a",
        title="RDMA read throughput (FV vs RNIC)",
        x_label="transfer [B]", y_label="GB/s",
        series=[tput_fv, tput_rnic],
        notes=["RNIC is PCIe-bound (~11 GBps); FV peaks at wire goodput "
               "(~12 GBps); RNIC ahead below ~4 kB"])
    fig6b = ExperimentResult(
        experiment_id="fig6b",
        title="RDMA read response time (FV vs RNIC)",
        x_label="transfer [B]", y_label="us",
        series=[resp_fv, resp_rnic],
        notes=["FV >= ~20% lower at large transfers; RNIC lower at small"])
    return fig6a, fig6b
