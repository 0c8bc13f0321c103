"""Figure 7: standard projection vs smart addressing (§6.3).

The query projects three contiguous 8-byte columns.  Three configurations:

* ``FV-SA``    — smart addressing on 512-byte tuples,
* ``FV-t256B`` — standard projection, 256-byte tuples,
* ``FV-t512B`` — standard projection, 512-byte tuples,

swept over the tuple count (256 .. 16k).  Expected shape: FV-t256B lowest,
FV-SA close behind, FV-t512B clearly slower at scale — i.e. the crossover
between the two access modes sits between 256-byte and 512-byte tuples.
"""

from __future__ import annotations

from ..core.query import Query
from ..sim.stats import Series
from ..workloads.generator import projection_workload
from .common import ExperimentResult, make_bench, run_query_warm, upload_table, us

TUPLE_COUNTS = (256, 512, 1024, 2048, 4096, 8192, 16384)
PROJECTED = ("a", "b", "c")  # three contiguous 8-byte columns


def _measure(num_tuples: int, tuple_bytes: int, smart: bool) -> float:
    bench = make_bench()
    schema, rows = projection_workload(num_tuples, tuple_bytes)
    table = upload_table(bench, "wide", schema, rows)
    query = Query(projection=PROJECTED, smart_addressing=smart)
    result, elapsed = run_query_warm(bench, table, query)
    expected_mode = "smart" if smart else "standard"
    assert result.report.ingest_mode == expected_mode
    assert len(result.rows()) == num_tuples
    return elapsed


def run(tuple_counts=TUPLE_COUNTS) -> ExperimentResult:
    sa = Series("FV-SA")
    t256 = Series("FV-t256B")
    t512 = Series("FV-t512B")
    for n in tuple_counts:
        sa.add(n, us(_measure(n, 512, smart=True)))
        t256.add(n, us(_measure(n, 256, smart=False)))
        t512.add(n, us(_measure(n, 512, smart=False)))
    return ExperimentResult(
        experiment_id="fig7",
        title="Standard projection vs smart addressing",
        x_label="tuples", y_label="us",
        series=[sa, t256, t512],
        notes=["crossover: smart addressing wins for 512 B tuples, "
               "sequential scan wins for 256 B tuples"])
