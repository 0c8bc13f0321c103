"""Measurement collection for experiments: series and percentiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, ``pct`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct out of range: {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class SeriesPoint:
    """One (x, y) measurement with optional label metadata."""

    x: float
    y: float
    meta: dict = field(default_factory=dict)


class Series:
    """A named sequence of (x, y) points — one plotted line of a figure."""

    def __init__(self, name: str):
        self.name = name
        self.points: list[SeriesPoint] = []

    def add(self, x: float, y: float, **meta: object) -> None:
        self.points.append(SeriesPoint(x, y, dict(meta)))

    @property
    def xs(self) -> list[float]:
        return [p.x for p in self.points]

    @property
    def ys(self) -> list[float]:
        return [p.y for p in self.points]

    def y_at(self, x: float) -> float:
        for p in self.points:
            if p.x == x:
                return p.y
        raise KeyError(f"series {self.name!r} has no point at x={x}")
