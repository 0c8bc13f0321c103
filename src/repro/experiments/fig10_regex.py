"""Figure 10: regular-expression matching vs string size (§6.6).

A table of fixed-width strings is filtered by a regex that matches 50% of
the rows; the string size sweeps 256 B .. 16 kB.  Farview's parallel
engines sustain line rate independent of pattern complexity; the CPU
baselines run an RE2-class matcher and pay DRAM streaming on top.

Expected shape: FV lowest, roughly linear in total string bytes; LCPU and
RCPU above it with a steeper slope; RCPU worst (result shipping).
"""

from __future__ import annotations

from ..baselines.lcpu import LcpuBaseline
from ..baselines.rcpu import RcpuBaseline
from ..core.query import Query, RegexFilter
from ..sim.stats import Series
from ..workloads.generator import REGEX_PATTERN, string_workload
from .common import ExperimentResult, make_bench, run_query_warm, upload_table, us

KB = 1024
STRING_SIZES = (256, 1 * KB, 4 * KB, 16 * KB)
NUM_ROWS = 8
MATCH_FRACTION = 0.5


def _fv_time(schema, rows) -> float:
    bench = make_bench()
    table = upload_table(bench, "R", schema, rows)
    query = Query(regex=RegexFilter("s", REGEX_PATTERN), label="regex")
    result, elapsed = run_query_warm(bench, table, query)
    assert len(result.rows()) <= len(rows)
    return elapsed


def run(string_sizes=STRING_SIZES, num_rows: int = NUM_ROWS
        ) -> ExperimentResult:
    fv = Series("FV")
    lcpu_s = Series("LCPU")
    rcpu_s = Series("RCPU")
    lcpu, rcpu = LcpuBaseline(), RcpuBaseline()
    for size in string_sizes:
        schema, rows = string_workload(num_rows, size, MATCH_FRACTION)
        fv.add(size, us(_fv_time(schema, rows)))
        _, t_l, _ = lcpu.regex(schema, rows, "s", REGEX_PATTERN)
        lcpu_s.add(size, us(t_l))
        _, t_r, _ = rcpu.regex(schema, rows, "s", REGEX_PATTERN)
        rcpu_s.add(size, us(t_r))
    return ExperimentResult(
        experiment_id="fig10",
        title="Regular expression matching response time",
        x_label="string [B]", y_label="us",
        series=[fv, lcpu_s, rcpu_s],
        notes=[f"{num_rows} rows per table, {int(MATCH_FRACTION * 100)}% "
               f"match rate, pattern {REGEX_PATTERN!r}"])
