"""Table 1: resource overhead of Farview.

Regenerates the paper's resource-utilization table from the component
inventory in :mod:`repro.fpga.resource_model` and checks the §6.1 claim
that the full deployment stays under 30% of the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fpga.resource_model import (
    OPERATOR_COSTS,
    TABLE1_OPERATOR_ROWS,
    ResourceModel,
    operator_cost,
    render_table1,
    system_cost,
)


@dataclass
class Table1Result:
    experiment_id = "table1"

    text: str
    system_row: tuple[float, float, float, float]      # percentages
    operator_rows: dict[str, tuple[float, float, float, float]]
    full_deployment_max_utilization: float

    def render(self) -> str:
        return self.text


def run(regions: int = 6) -> Table1Result:
    system = system_cost(regions)
    operator_rows = {}
    for label, key in TABLE1_OPERATOR_ROWS:
        operator_rows[label] = operator_cost(key).as_percentages()

    # Deploy the evaluation's pipelines (selection-class) in every region
    # and record the worst-dimension utilization.
    model = ResourceModel(regions)
    for i in range(regions):
        model.deploy(i, ["selection", "packing"])
    total = model.total()
    worst = max(total.luts, total.regs, total.bram, total.dsps)

    text = render_table1(regions)
    text += ("\n\nFull deployment (selection pipelines in all regions): "
             f"worst-dimension utilization {worst * 100:.1f}% "
             "(paper: 'not more than 30%')")
    return Table1Result(
        text=text,
        system_row=system.as_percentages(),
        operator_rows=operator_rows,
        full_deployment_max_utilization=worst,
    )
