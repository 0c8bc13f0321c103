"""Synthetic workload generation for the evaluation experiments (§6).

Every generator is seeded and returns plain structured arrays plus the
query ingredients (predicates with calibrated selectivity, group keys with
controlled cardinality, string corpora with controlled match rate), so the
experiments are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import QueryError
from ..common.expr import Expr, eval_mask
from ..common.records import Schema, default_schema, string_schema, wide_schema
from ..operators.selection import And, Compare

DEFAULT_SEED = 0x5EED


@dataclass
class SelectionWorkload:
    """A table plus a two-column predicate with known selectivity (§6.4)."""

    schema: Schema
    rows: np.ndarray
    predicate: Expr
    target_selectivity: float

    @property
    def actual_selectivity(self) -> float:
        mask = eval_mask(self.predicate, self.rows)
        return float(mask.mean()) if len(self.rows) else 0.0


def make_rows(schema: Schema, num_rows: int,
              seed: int = DEFAULT_SEED) -> np.ndarray:
    """Random rows for any fixed-width schema."""
    if num_rows < 0:
        raise QueryError(f"negative row count: {num_rows}")
    rng = np.random.default_rng(seed)
    rows = schema.empty(num_rows)
    for col in schema.columns:
        if col.kind == "int64":
            rows[col.name] = rng.integers(0, 2**31, num_rows, dtype=np.int64)
        elif col.kind == "uint64":
            rows[col.name] = rng.integers(0, 2**32, num_rows, dtype=np.uint64)
        elif col.kind == "float64":
            rows[col.name] = rng.random(num_rows)
        else:  # char
            alphabet = np.frombuffer(
                b"abcdefghijklmnopqrstuvwxyz0123456789 ", dtype=np.uint8)
            idx = rng.integers(0, len(alphabet), (num_rows, col.width))
            rows[col.name] = [alphabet[i].tobytes() for i in idx]
    return rows


def selection_workload(num_rows: int, selectivity: float,
                       seed: int = DEFAULT_SEED) -> SelectionWorkload:
    """The Figure 8 workload: ``SELECT * FROM S WHERE S.a < X AND S.b < Y``.

    Columns ``a`` (int) and ``b`` (float) are independent uniforms, so the
    conjunctive selectivity factors as sqrt(s) * sqrt(s).
    """
    if not 0.0 <= selectivity <= 1.0:
        raise QueryError(f"selectivity out of [0, 1]: {selectivity}")
    schema = default_schema()
    rows = make_rows(schema, num_rows, seed)
    per_column = float(np.sqrt(selectivity))
    x = int(per_column * 2**31)
    y = per_column
    if selectivity >= 1.0:
        x, y = 2**31, 2.0  # strictly above every generated value
    predicate = And(Compare("a", "<", x), Compare("b", "<", y))
    return SelectionWorkload(schema, rows, predicate, selectivity)


def distinct_workload(num_rows: int, num_distinct: int,
                      seed: int = DEFAULT_SEED) -> tuple[Schema, np.ndarray]:
    """Figure 9(a): column ``a`` carries ``num_distinct`` distinct values.

    ``num_distinct == num_rows`` reproduces the paper's all-distinct case.
    """
    if num_distinct <= 0 or num_distinct > max(num_rows, 1):
        raise QueryError(
            f"num_distinct {num_distinct} out of [1, {num_rows}]")
    schema = default_schema()
    rows = make_rows(schema, num_rows, seed)
    rng = np.random.default_rng(seed + 1)
    if num_rows:
        values = np.arange(num_distinct, dtype=np.int64)
        assignment = np.concatenate([
            values,  # every distinct value appears at least once
            rng.choice(values, num_rows - num_distinct),
        ]) if num_rows >= num_distinct else rng.choice(values, num_rows)
        rng.shuffle(assignment)
        rows["a"] = assignment
    return schema, rows


def groupby_workload(num_rows: int, num_groups: int,
                     seed: int = DEFAULT_SEED) -> tuple[Schema, np.ndarray]:
    """Figure 9(b,c): ``a`` holds group keys, ``b`` the summed values."""
    schema, rows = distinct_workload(num_rows, num_groups, seed)
    rng = np.random.default_rng(seed + 2)
    if num_rows:
        rows["b"] = rng.random(num_rows) * 100.0
    return schema, rows


def projection_workload(num_rows: int, tuple_bytes: int,
                        seed: int = DEFAULT_SEED) -> tuple[Schema, np.ndarray]:
    """Figure 7: wide tuples of ``tuple_bytes`` with 8-byte int columns."""
    schema = wide_schema(tuple_bytes)
    return schema, make_rows(schema, num_rows, seed)


def open_loop_arrivals(num_streams: int, mean_gap_ns: float,
                       horizon_ns: float,
                       seed: int = DEFAULT_SEED) -> list[list[float]]:
    """Seeded open-loop arrival schedules: one Poisson stream per tenant.

    Each stream's first arrival is uniform in ``[0, horizon_ns)`` (so
    every tenant submits at least once and the fleet does not stampede at
    t=0) and subsequent gaps are exponential with mean ``mean_gap_ns``,
    truncated at the horizon.  Open loop: arrival times are fixed up
    front — load keeps arriving at the offered rate regardless of how
    fast earlier requests complete, which is what makes saturation
    measurable.  Same arguments → the same schedule, arrival for arrival.
    """
    if num_streams < 0:
        raise QueryError(f"negative stream count: {num_streams}")
    if mean_gap_ns <= 0 or horizon_ns <= 0:
        raise QueryError(
            f"mean gap and horizon must be positive: "
            f"{mean_gap_ns}, {horizon_ns}")
    rng = np.random.default_rng(seed)
    schedules: list[list[float]] = []
    for _ in range(num_streams):
        at = float(rng.uniform(0.0, horizon_ns))
        times = [at]
        while True:
            at += float(rng.exponential(mean_gap_ns))
            if at >= horizon_ns:
                break
            times.append(at)
        schedules.append(times)
    return schedules


#: Substring embedded in matching strings of the regex workload.
REGEX_NEEDLE = "farview"
#: Pattern used by the Figure 10 experiment (matches the needle).
REGEX_PATTERN = "far(view|sight)"


def string_workload(num_rows: int, string_bytes: int,
                    match_fraction: float = 0.5,
                    seed: int = DEFAULT_SEED) -> tuple[Schema, np.ndarray]:
    """Figure 10: fixed-width strings where ``match_fraction`` of the rows
    contain the needle that :data:`REGEX_PATTERN` matches."""
    if not 0.0 <= match_fraction <= 1.0:
        raise QueryError(f"match fraction out of [0, 1]: {match_fraction}")
    if string_bytes < len(REGEX_NEEDLE) + 2:
        raise QueryError(
            f"string_bytes {string_bytes} too small for the needle")
    schema = string_schema(string_bytes)
    rows = schema.empty(num_rows)
    rows["id"] = np.arange(num_rows)
    rng = np.random.default_rng(seed)
    alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)
    # 'f' never appears in filler so non-needle rows cannot match by chance.
    filler = alphabet[alphabet != ord("f")]
    should_match = rng.random(num_rows) < match_fraction
    for i in range(num_rows):
        body = filler[rng.integers(0, len(filler), string_bytes)].tobytes()
        if should_match[i]:
            pos = int(rng.integers(0, string_bytes - len(REGEX_NEEDLE)))
            body = (body[:pos] + REGEX_NEEDLE.encode()
                    + body[pos + len(REGEX_NEEDLE):])
        rows["s"][i] = body[:string_bytes]
    return schema, rows
