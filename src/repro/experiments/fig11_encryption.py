"""Figure 11: encryption/decryption (§6.7).

* 11(a) — response time of reading + decrypting an AES-128-CTR encrypted
  table, FV vs LCPU vs RCPU (Cryptopp-class software AES), table sizes
  128 kB .. 1 MB.
* 11(b) — throughput of a plain Farview read (FV-RD) vs the same read
  with decryption on the stream (FV-RD+Dec), transfer sizes 256 B .. 4 kB.

Expected shape: 11(a) FV far ahead (line-rate AES, overhead hidden);
11(b) the two curves coincide — decryption costs no throughput.
"""

from __future__ import annotations

from ..baselines.lcpu import LcpuBaseline
from ..baselines.rcpu import RcpuBaseline
from ..common.records import wide_schema
from ..core.query import Query
from ..core.table import FTable
from ..operators.encryption_op import encrypt_table_image
from ..sim.stats import Series
from ..workloads.generator import make_rows, selection_workload
from .common import (
    ExperimentResult,
    make_bench,
    run_query_warm,
    upload_table,
    us,
)
from .fig6_rdma import fv_throughput_gbps

KB = 1024
TABLE_SIZES = (128 * KB, 256 * KB, 512 * KB, 1024 * KB)
THROUGHPUT_SIZES = (256, 512, 1 * KB, 2 * KB, 4 * KB)
ROW_WIDTH = 64
KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NONCE = b"\x0b" * 12


def _fv_decrypt_time(workload) -> float:
    bench = make_bench()
    table = upload_table(bench, "E", workload.schema, workload.rows,
                         key=KEY, nonce=NONCE)
    query = Query(decrypt_input=True, label="decrypt-read")
    result, elapsed = run_query_warm(bench, table, query)
    assert len(result.rows()) == len(workload.rows)
    return elapsed


def fv_decrypt_throughput_gbps(size: int) -> float:
    """FV-RD+Dec: windowed read throughput with decryption on the stream.

    The AES stage runs at line rate (fully parallelized, §5.5), so the
    simulated cost model charges it no extra occupancy — the measurement
    validates that the full pipeline (request handling, memory, packing)
    still behaves identically; the query path differs from the raw read
    only by the pipeline fill depth of the AES stage.
    """
    bench = make_bench()
    schema = wide_schema(ROW_WIDTH)
    rows = make_rows(schema, size // ROW_WIDTH)
    table = upload_table(bench, f"enc{size}", schema, rows,
                         key=KEY, nonce=NONCE)
    query = Query(decrypt_input=True, label="decrypt-read")
    bench.client.far_view(table, query)  # deploy the pipeline
    sim, node, client = bench.sim, bench.node, bench.client
    conn = client.connection
    from ..core.pipeline_compiler import compile_query
    total_requests = 48
    window = 16
    completions = []
    from ..sim.resources import CreditPool
    inflight = CreditPool(sim, window)

    def one_query():
        compiled = compile_query(query, table, node.config)
        yield from node.serve_farview(conn, table, compiled)
        completions.append(sim.now)
        inflight.release()

    def driver():
        for _ in range(total_requests):
            yield inflight.acquire()
            sim.process(one_query())

    sim.process(driver())
    sim.run()
    steady_start = completions[window - 1]
    elapsed = completions[-1] - steady_start
    return (total_requests - window) * size / elapsed


def run_response(table_sizes=TABLE_SIZES) -> ExperimentResult:
    fv = Series("FV")
    lcpu_s = Series("LCPU")
    rcpu_s = Series("RCPU")
    lcpu, rcpu = LcpuBaseline(), RcpuBaseline()
    for size in table_sizes:
        workload = selection_workload(size // ROW_WIDTH, 1.0)
        fv.add(size, us(_fv_decrypt_time(workload)))
        image = encrypt_table_image(
            workload.schema.to_bytes(workload.rows), KEY, NONCE)
        _, t_l, _ = lcpu.decrypt(workload.schema, image, KEY, NONCE)
        lcpu_s.add(size, us(t_l))
        _, t_r, _ = rcpu.decrypt(workload.schema, image, KEY, NONCE)
        rcpu_s.add(size, us(t_r))
    return ExperimentResult(
        experiment_id="fig11a",
        title="Decryption response time",
        x_label="table [B]", y_label="us",
        series=[fv, lcpu_s, rcpu_s],
        notes=["FV hides AES behind the stream; baselines pay "
               "software AES + cold DRAM"])


def run_throughput(sizes=THROUGHPUT_SIZES) -> ExperimentResult:
    rd = Series("FV-RD")
    rd_dec = Series("FV-RD+Dec")
    for size in sizes:
        rd.add(size, fv_throughput_gbps(size))
        rd_dec.add(size, fv_decrypt_throughput_gbps(size))
    return ExperimentResult(
        experiment_id="fig11b",
        title="Read throughput with and without decryption",
        x_label="transfer [B]", y_label="GB/s",
        series=[rd, rd_dec],
        notes=["no visible throughput penalty from decryption"])


def run() -> list[ExperimentResult]:
    return [run_response(), run_throughput()]
