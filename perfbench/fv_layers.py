"""Fold a cProfile run into this repo's layers.

A layer is a set of ``src/repro`` modules (``PACKAGE_LAYERS`` and
``CORE_LAYERS`` below).
Python frames are charged to the layer their source file belongs to.
Builtins, numpy and the standard library have no layer of their own:
their time is charged to whichever layer called them, through the
``pstats`` caller edges, so a layer's self time is its own frames plus
the C code they drive, minus every call into another layer.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

LAYERS = ("sim", "network", "memory", "fpga", "operators", "baselines",
          "common", "core.node", "core.api", "core.cluster", "core.planner",
          "core.compile", "core.versioning", "core.views", "core.other",
          "bench")

#: ``repro/core/<module>.py`` -> layer; every other ``repro/<package>``
#: is a layer by its package name, and what is left (experiments,
#: workloads, cli, this directory) is the harness: ``bench``.
CORE_LAYERS = {
    "node": "core.node",
    "api": "core.api", "table": "core.api", "catalog": "core.api",
    "cluster": "core.cluster", "partition": "core.cluster",
    "planner": "core.planner", "cost_model": "core.planner",
    "pipeline_compiler": "core.planner", "query": "core.planner",
    "compile": "core.compile", "ir": "core.compile", "sql": "core.compile",
    "versioning": "core.versioning",
    "views": "core.views", "zset": "core.views",
}
PACKAGE_LAYERS = ("sim", "network", "memory", "fpga", "operators",
                  "baselines", "common")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str | None:
    """The layer owning ``filename``; ``None`` for code outside the repo
    (builtins show up as ``~``, numpy and the stdlib by their paths)."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    head, mark, tail = filename.rpartition(_REPRO_MARK)
    if not mark or "site-packages" in head:
        return None
    parts = tail.split(os.sep)
    if parts[0] in PACKAGE_LAYERS:
        return parts[0]
    if parts[0] == "core":
        return CORE_LAYERS.get(parts[-1].removesuffix(".py"), "core.other")
    return "bench"


def fold(profile) -> tuple[dict[str, float], dict[str, int]]:
    """``(self seconds, calls)`` per layer for one ``cProfile.Profile``.

    ``calls`` counts entries into the layer's own Python functions.
    """
    stats = pstats.Stats(profile).stats
    seconds = defaultdict(float)
    calls = defaultdict(int)
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func, seen) -> dict[str, float]:
        """The layers ``func``'s time belongs to, as fractions: its own
        layer, or for foreign code the layers that (transitively) called
        it, weighted by cumulative edge time."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func not in memo:
            edges = {caller: edge[3]
                     for caller, edge in stats[func][4].items()
                     if caller not in seen and caller in stats}
            total = sum(edges.values())
            split = defaultdict(float)
            for caller, weight in edges.items():
                for name, part in owners(caller, seen | {func}).items():
                    split[name] += part * (weight / total if total
                                           else 1.0 / len(edges))
            memo[func] = split or {"bench": 1.0}   # profiled from the top
        return memo[func]

    for func, (_cc, ncalls, tottime, _ct, edges) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] += tottime
            calls[layer] += ncalls
        elif not edges:
            seconds["bench"] += tottime
        else:
            # Edge tottime is this function's own time under that caller.
            for caller, edge in edges.items():
                for name, part in owners(caller, {func}).items():
                    seconds[name] += edge[2] * part
    return ({layer: seconds[layer] for layer in LAYERS},
            {layer: calls[layer] for layer in LAYERS})
