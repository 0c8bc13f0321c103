"""FPGA fabric model: dynamic regions, resource accounting."""

from .region import DynamicRegion, RegionManager, RegionState
from .resource_model import (
    OPERATOR_COSTS,
    ResourceModel,
    ResourceVector,
    operator_cost,
    render_table1,
    system_cost,
)

__all__ = [
    "DynamicRegion",
    "RegionManager",
    "RegionState",
    "OPERATOR_COSTS",
    "ResourceModel",
    "ResourceVector",
    "operator_cost",
    "render_table1",
    "system_cost",
]
