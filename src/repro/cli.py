"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig8            # all panels of Figure 8
    python -m repro run fig6a --csv out.csv
    python -m repro run all
    python -m repro sql "SELECT DISTINCT a FROM demo" [--rows 4096]

``run`` prints the same rows the paper plots (see EXPERIMENTS.md); ``sql``
spins up an in-memory bench with a demo table and executes the statement
through the full offload path.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import Callable

from .experiments import (
    fig6_rdma,
    fig7_projection,
    fig8_selection,
    fig9_grouping,
    fig10_regex,
    fig11_encryption,
    fig12_multiclient,
    fig13_scaleout,
    fig14_pushdown,
    fig15_updates,
    fig16_joins,
    fig17_availability,
    fig18_minitpch,
    fig19_shuffle,
    fig20_views,
    fig21_serving,
    table1_resources,
)
from .experiments.common import ExperimentResult


def _as_list(result) -> list:
    if isinstance(result, (list, tuple)):
        return list(result)
    return [result]


#: Experiment id -> (description, runner returning result(s)).
EXPERIMENTS: dict[str, tuple[str, Callable[[], list]]] = {
    "table1": ("Table 1: FPGA resource overhead",
               lambda: [table1_resources.run()]),
    "fig6": ("Figure 6: RDMA throughput & response time",
             lambda: _as_list(fig6_rdma.run())),
    "fig7": ("Figure 7: projection vs smart addressing",
             lambda: [fig7_projection.run()]),
    "fig8": ("Figure 8: selection at 100/50/25% selectivity",
             lambda: _as_list(fig8_selection.run())),
    "fig9": ("Figure 9: DISTINCT and GROUP BY",
             lambda: _as_list(fig9_grouping.run())),
    "fig10": ("Figure 10: regular-expression matching",
              lambda: [fig10_regex.run()]),
    "fig11": ("Figure 11: decryption",
              lambda: _as_list(fig11_encryption.run())),
    "fig12": ("Figure 12: six concurrent clients",
              lambda: [fig12_multiclient.run()]),
    "fig13": ("Figure 13 (extension): pool scale-out, sharded DISTINCT",
              lambda: [fig13_scaleout.run()]),
    "fig14": ("Figure 14 (extension): cost-based placement, offload vs "
              "ship-to-compute",
              lambda: _as_list(fig14_pushdown.run())),
    "fig15": ("Figure 15 (extension): versioned write path, "
              "scan-under-update and compaction",
              lambda: _as_list(fig15_updates.run())),
    "fig16": ("Figure 16 (extension): end-to-end joins — placement vs "
              "build size, broadcast scale-out",
              lambda: _as_list(fig16_joins.run())),
    "fig17": ("Figure 17 (extension): availability under fault injection — "
              "crashes, replication, failover",
              lambda: _as_list(fig17_availability.run())),
    "fig18": ("Figure 18 (extension): mini TPC-H through the SQL "
              "compiler — Q1/Q3/Q6 on a 4-node pool, sha-pinned against "
              "the serial model",
              lambda: _as_list(fig18_minitpch.run())),
    "fig19": ("Figure 19 (extension): partition-aware joins — "
              "repartition shuffle vs broadcast, co-located zero-copy "
              "cells by partitioning scheme",
              lambda: _as_list(fig19_shuffle.run())),
    "fig20": ("Figure 20 (extension): incremental materialized views — "
              "refresh-vs-rescan crossover and an epoch-consistent "
              "subscription stream",
              lambda: _as_list(fig20_views.run())),
    "fig21": ("Figure 21 (extension): tenant serving layer — open-loop "
              "load up to 10,000 tenants, coalescing, weighted fair "
              "admission",
              lambda: _as_list(fig21_serving.run())),
}

#: Sub-panel ids resolve to their parent experiment.
_PANELS = {
    "fig6a": "fig6", "fig6b": "fig6",
    "fig8a": "fig8", "fig8b": "fig8", "fig8c": "fig8",
    "fig9a": "fig9", "fig9b": "fig9", "fig9c": "fig9",
    "fig11a": "fig11", "fig11b": "fig11",
    "fig14_w64": "fig14", "fig14_w256": "fig14", "fig14_w512": "fig14",
    "fig15a": "fig15", "fig15b": "fig15",
    "fig16a": "fig16", "fig16b": "fig16",
    "fig17a": "fig17", "fig17b": "fig17", "fig17c": "fig17",
    "fig19a": "fig19", "fig19b": "fig19",
    "fig20a": "fig20", "fig20b": "fig20", "fig20c": "fig20",
    "fig21a": "fig21", "fig21b": "fig21", "fig21c": "fig21",
}


def results_to_csv(results: list[ExperimentResult]) -> str:
    """Serialize experiment series as long-form CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["experiment", "series", "x", "y", "x_label", "y_label"])
    for result in results:
        if not isinstance(result, ExperimentResult):
            continue  # Table 1 has its own renderer
        for series in result.series:
            for point in series.points:
                writer.writerow([result.experiment_id, series.name,
                                 point.x, point.y,
                                 result.x_label, result.y_label])
    return buffer.getvalue()


def _resolve(experiment_id: str) -> list[str]:
    key = experiment_id.lower()
    if key == "all":
        return list(EXPERIMENTS)
    key = _PANELS.get(key, key)
    if key not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{', '.join(sorted(EXPERIMENTS))} or 'all'")
    return [key]


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (description, _) in EXPERIMENTS.items():
        print(f"{key:<{width}}  {description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    collected: list = []
    for key in _resolve(args.experiment):
        description, runner = EXPERIMENTS[key]
        print(f"# {description}", file=sys.stderr)
        results = runner()
        collected.extend(results)
        wanted = args.experiment.lower()
        for result in results:
            if (wanted in _PANELS
                    and not result.experiment_id.startswith(wanted)):
                continue  # a specific panel was requested
            print(result.render())
            print()
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(results_to_csv(collected))
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    import numpy as np

    from .common.records import default_schema
    from .common.units import to_us
    from .experiments.common import make_bench
    from .workloads.generator import make_rows

    from .common.records import Column, Schema
    from .core.table import FTable

    bench = make_bench()
    schema = default_schema()
    rows = make_rows(schema, args.rows)
    rows["c"] = np.arange(args.rows) % 16
    # A writable demo table (the default spec), so INSERT / UPDATE /
    # DELETE statements work alongside SELECTs (each write commits a
    # delta + epoch bump).
    table = bench.client.create_table(args.table, schema, rows)
    # A small dimension table keyed on demo.c, so JOIN statements work:
    #   SELECT c, rate FROM demo JOIN dim ON demo.c = dim.id
    dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
    dim_rows = dim_schema.empty(16)
    dim_rows["id"] = np.arange(16)
    dim_rows["rate"] = np.arange(16) * 0.5
    dim = FTable("dim", dim_schema, 16)
    bench.client.alloc_table_mem(dim)
    bench.client.table_write(dim, dim_rows)
    result, elapsed = bench.client.sql(args.statement)
    if isinstance(result, (int, np.integer)):
        # A write statement: the result is the new committed epoch.
        print(f"-- committed epoch {result} in {to_us(elapsed):.1f} us "
              f"simulated ({table.num_rows} rows visible, "
              f"{table.num_deltas} delta segment(s))")
        return 0
    out = result.rows()
    print(f"-- {len(out)} rows in {to_us(elapsed):.1f} us simulated "
          f"({result.bytes_shipped} bytes shipped)")
    if result.explain is not None:
        print(result.explain.render())
    for row in out[:args.limit]:
        print(tuple(row))
    if len(out) > args.limit:
        print(f"... ({len(out) - args.limit} more)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Farview reproduction: run the paper's experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiment ids")
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run an experiment (or 'all')")
    p_run.add_argument("experiment",
                       help="experiment id (e.g. fig8, fig6a, table1, all)")
    p_run.add_argument("--csv", metavar="PATH",
                       help="also write the series as long-form CSV")
    p_run.set_defaults(fn=cmd_run)

    p_sql = sub.add_parser("sql", help="offload one SQL statement to a "
                                       "demo table")
    p_sql.add_argument("statement")
    p_sql.add_argument("--table", default="demo",
                       help="demo table name (default: demo)")
    p_sql.add_argument("--rows", type=int, default=4096,
                       help="demo table rows (default: 4096)")
    p_sql.add_argument("--limit", type=int, default=10,
                       help="max rows to print (default: 10)")
    p_sql.set_defaults(fn=cmd_sql)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
