"""Comparison baselines: LCPU, RCPU, RNIC (paper §6.1)."""

from .cpu_model import CostBreakdown, CpuCostModel
from .lcpu import LcpuBaseline
from .rcpu import RcpuBaseline
from .rnic import RnicBaseline
from .sw_ops import (
    software_decrypt,
    software_distinct,
    software_groupby,
    software_project,
    software_regex,
    software_select,
)

__all__ = [
    "CostBreakdown",
    "CpuCostModel",
    "LcpuBaseline",
    "RcpuBaseline",
    "RnicBaseline",
    "software_decrypt",
    "software_distinct",
    "software_groupby",
    "software_project",
    "software_regex",
    "software_select",
]
