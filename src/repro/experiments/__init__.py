"""Experiment harnesses: one module per paper table/figure.

``repro list`` names every experiment and the figure it reproduces;
``cli.EXPERIMENTS`` is that registry, and ``repro run <id>`` is the one
entry point that runs them.
"""

from .common import Bench, ExperimentResult, make_bench, run_query_warm, upload_table

__all__ = [
    "Bench",
    "ExperimentResult",
    "make_bench",
    "run_query_warm",
    "upload_table",
]
