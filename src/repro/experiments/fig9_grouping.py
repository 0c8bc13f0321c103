"""Figure 9: grouping operators — DISTINCT and GROUP BY + SUM (§6.5).

* 9(a) — ``SELECT DISTINCT(S.a) FROM S``: table sizes 64 kB .. 1 MB, the
  number of distinct elements equals the number of tuples (worst case).
* 9(b) — ``SELECT S.a, SUM(S.b) FROM S GROUP BY S.a``: same size sweep,
  the number of groups grows with the table (1 group per 16 tuples).
* 9(c) — same query at a fixed 1 MB table, group count swept 256 .. 4k.

Expected shape: FV far ahead and nearly flat (fully pipelined; flush adds
a small per-group cost visible in 9(c)); the CPU baselines climb steeply
with input size (hash-map work and resizes dominate), LCPU < RCPU.
"""

from __future__ import annotations

from ..baselines.lcpu import LcpuBaseline
from ..baselines.rcpu import RcpuBaseline
from ..core.compile import BoundAggregate, BoundDistinct
from ..core.query import group_by_sum, select_distinct
from ..operators.aggregate import AggregateSpec
from ..sim.stats import Series
from ..workloads.generator import distinct_workload, groupby_workload
from .common import ExperimentResult, make_bench, run_query_warm, upload_table, us

KB = 1024
TABLE_SIZES = (64 * KB, 128 * KB, 256 * KB, 512 * KB, 1024 * KB)
GROUP_COUNTS = (256, 512, 1024, 2048, 4096)
ROW_WIDTH = 64
FIXED_TABLE_SIZE = 1024 * KB
GROUPS_PER_TUPLES = 16  # 9(b): one distinct group per 16 tuples


def _fv_distinct_time(schema, rows) -> float:
    bench = make_bench()
    table = upload_table(bench, "D", schema, rows)
    result, elapsed = run_query_warm(bench, table, select_distinct(["a"]))
    assert len(result.rows()) == len(set(rows["a"].tolist()))
    return elapsed


def _fv_groupby_time(schema, rows, expected_groups: int) -> float:
    bench = make_bench()
    table = upload_table(bench, "G", schema, rows)
    result, elapsed = run_query_warm(bench, table, group_by_sum("a", "b"))
    assert len(result.rows()) == expected_groups
    return elapsed


def run_distinct(table_sizes=TABLE_SIZES) -> ExperimentResult:
    fv = Series("FV")
    lcpu_s = Series("LCPU")
    rcpu_s = Series("RCPU")
    lcpu, rcpu = LcpuBaseline(), RcpuBaseline()
    steps = [BoundDistinct(("a",))]
    for size in table_sizes:
        n = size // ROW_WIDTH
        schema, rows = distinct_workload(n, n)  # all distinct (paper)
        fv.add(size, us(_fv_distinct_time(schema, rows)))
        _, t_l, _ = lcpu.run(schema, rows, steps)
        lcpu_s.add(size, us(t_l))
        _, t_r, _ = rcpu.run(schema, rows, steps)
        rcpu_s.add(size, us(t_r))
    return ExperimentResult(
        experiment_id="fig9a",
        title="DISTINCT response time (all values distinct)",
        x_label="table [B]", y_label="us",
        series=[fv, lcpu_s, rcpu_s],
        notes=["baselines pay hash-map inserts + resizes; FV is pipelined"])


def run_groupby_scaling(table_sizes=TABLE_SIZES) -> ExperimentResult:
    fv = Series("FV")
    lcpu_s = Series("LCPU")
    rcpu_s = Series("RCPU")
    lcpu, rcpu = LcpuBaseline(), RcpuBaseline()
    steps = [BoundAggregate(("a",), (AggregateSpec("sum", "b"),))]
    for size in table_sizes:
        n = size // ROW_WIDTH
        groups = max(1, n // GROUPS_PER_TUPLES)
        schema, rows = groupby_workload(n, groups)
        fv.add(size, us(_fv_groupby_time(schema, rows, groups)))
        _, t_l, _ = lcpu.run(schema, rows, steps)
        lcpu_s.add(size, us(t_l))
        _, t_r, _ = rcpu.run(schema, rows, steps)
        rcpu_s.add(size, us(t_r))
    return ExperimentResult(
        experiment_id="fig9b",
        title="GROUP BY + SUM response time (groups grow with table)",
        x_label="table [B]", y_label="us",
        series=[fv, lcpu_s, rcpu_s],
        notes=[f"one group per {GROUPS_PER_TUPLES} tuples"])


def run_groupby_vs_groups(group_counts=GROUP_COUNTS,
                          table_size: int = FIXED_TABLE_SIZE
                          ) -> ExperimentResult:
    fv = Series("FV")
    lcpu_s = Series("LCPU")
    rcpu_s = Series("RCPU")
    lcpu, rcpu = LcpuBaseline(), RcpuBaseline()
    steps = [BoundAggregate(("a",), (AggregateSpec("sum", "b"),))]
    n = table_size // ROW_WIDTH
    for groups in group_counts:
        schema, rows = groupby_workload(n, groups)
        fv.add(groups, us(_fv_groupby_time(schema, rows, groups)))
        _, t_l, _ = lcpu.run(schema, rows, steps)
        lcpu_s.add(groups, us(t_l))
        _, t_r, _ = rcpu.run(schema, rows, steps)
        rcpu_s.add(groups, us(t_r))
    return ExperimentResult(
        experiment_id="fig9c",
        title="GROUP BY + SUM response time vs number of groups",
        x_label="groups", y_label="us",
        series=[fv, lcpu_s, rcpu_s],
        notes=[f"fixed {table_size // KB} kB table; FV's flush cost grows "
               "with the group count"])


def run() -> list[ExperimentResult]:
    return [run_distinct(), run_groupby_scaling(), run_groupby_vs_groups()]
