"""Shared experiment plumbing: test-bench construction and reporting.

Each ``figN_*`` module builds on this: a fresh simulated test bench per
data point (so pipe/queue state never leaks between measurements), warm-up
of the dynamic region (the paper's response times exclude the ms-scale
bitstream load — pipelines are precompiled and deployed before the
measured runs, §3.2), and fixed-width text rendering of the series so the
benchmarks print the same rows the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.config import FarviewConfig, MemoryConfig
from ..common.units import MB, to_us
from ..core.api import FarviewClient, QueryResult
from ..core.node import FarviewNode
from ..core.query import Query
from ..core.table import FTable
from ..operators.encryption_op import encrypt_table_image
from ..sim.engine import Simulator
from ..sim.stats import Series

#: Experiment memory config: enough for the largest table (2 MB) x 6
#: clients with the paper's 2 MB pages.
EXPERIMENT_MEMORY = MemoryConfig(channels=2, channel_capacity=64 * MB)
EXPERIMENT_CONFIG = FarviewConfig(memory=EXPERIMENT_MEMORY)


@dataclass
class Bench:
    """One simulated client + node pair, ready to execute queries."""

    sim: Simulator
    node: FarviewNode
    client: FarviewClient


def make_bench(config: FarviewConfig | None = None) -> Bench:
    sim = Simulator()
    node = FarviewNode(sim, config if config is not None else EXPERIMENT_CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    return Bench(sim, node, client)


def upload_table(bench: Bench, name: str, schema, rows: np.ndarray,
                 key: bytes | None = None,
                 nonce: bytes | None = None) -> FTable:
    """Allocate + write a table (optionally encrypted at rest)."""
    encrypted = key is not None
    table = FTable(name, schema, len(rows), encrypted=encrypted,
                   key=key, nonce=nonce)
    bench.client.alloc_table_mem(table)
    if encrypted:
        assert nonce is not None
        image = encrypt_table_image(schema.to_bytes(rows), key, nonce)
        bench.client.table_write(table, image)
    else:
        bench.client.table_write(table, rows)
    return table


def run_query_warm(bench: Bench, table: FTable,
                   query: Query) -> tuple[QueryResult, float]:
    """Execute ``query`` twice; report the warm run (no reconfiguration)."""
    bench.client.far_view(table, query)
    return bench.client.far_view(table, query)


@dataclass
class ExperimentResult:
    """Output of one experiment harness: named series + rendered text."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def series_named(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"{self.experiment_id}: no series named {name!r}; "
                       f"have {[s.name for s in self.series]}")

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if not self.series:
            return "\n".join(lines)
        xs = self.series[0].xs
        header = f"{self.x_label:>16} | " + " | ".join(
            f"{s.name:>12}" for s in self.series)
        lines.append(header)
        lines.append("-" * len(header))
        for i, x in enumerate(xs):
            cells = []
            for s in self.series:
                cells.append(f"{s.points[i].y:>12.2f}" if i < len(s.points)
                             else f"{'-':>12}")
            lines.append(f"{_fmt_x(x):>16} | " + " | ".join(cells))
        lines.append(f"(y = {self.y_label})")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt_x(x: float) -> str:
    if x >= 1024 * 1024 and x % (1024 * 1024) == 0:
        return f"{int(x // (1024 * 1024))}M"
    if x >= 1024 and x % 1024 == 0:
        return f"{int(x // 1024)}k"
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.2f}"


def us(value_ns: float) -> float:
    """Report helper: nanoseconds -> microseconds (paper's y axes)."""
    return to_us(value_ns)
