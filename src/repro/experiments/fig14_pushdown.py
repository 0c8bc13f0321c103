"""Figure 14 (extension): cost-based placement — offload vs ship-to-compute.

The paper assumes the query compiler decides what to push into the memory
node (§4.2) but only evaluates full offload.  This experiment measures the
decision itself: ``SELECT * FROM S WHERE S.a < X`` executed three ways —

* ``FV-off``  — always offload (the paper's path),
* ``FV-ship`` — always ship: raw RDMA read + client-side software selection,
* ``FV-auto`` — the cost-based planner (:mod:`repro.core.planner`) picks
  per query,

swept over predicate selectivity x tuple width at a fixed 1 MB table.

Scenario: *ad-hoc* queries against **cold** regions.  With a warm region
Farview beats the CPU baselines everywhere (Figures 8-12), so the planner
trivially offloads; the contested regime is a one-shot query whose
pipeline is not resident and must be partially reconfigured first.  The
region here is a small selection-only slot — ``reconfiguration_ns`` is
scaled to :data:`SMALL_REGION_FRACTION` of the full-region swap via
:func:`repro.common.calibration.reconfiguration_latency_ns` ("on the
order of milliseconds, *depending on the size of the region*", §3.2) —
and, unlike the other figures, the measured response time *includes* that
setup.

Expected shape: shipping wins the selective/wide corner of the plane
(the fixed reconfiguration charge dominates while the client's per-tuple
work is small), offloading wins as selectivity rises (the client's
result materialization outgrows the node's overlapped egress) and as
tuples narrow (per-tuple software costs blow up) — so the ship->offload
crossover selectivity grows with tuple width.  ``FV-auto`` must track
``min(FV-off, FV-ship)`` within 10% at every point; the run asserts it.
"""

from __future__ import annotations

import numpy as np

from ..common import calibration as cal
from ..common.config import FarviewConfig, OperatorStackConfig
from ..common.units import MB
from ..core.api import FarviewClient, canonical_result_bytes
from ..core.cost_model import PlanStats
from ..core.node import FarviewNode
from ..core.query import Query
from ..core.table import FTable
from ..operators.selection import Compare
from ..sim.engine import Simulator
from ..sim.stats import Series
from ..workloads.generator import projection_workload
from .common import EXPERIMENT_MEMORY, ExperimentResult, us

#: The swept strategies, in reporting order.
STRATEGIES = ("offload", "ship", "auto")

#: Size of the ad-hoc selection region relative to a full dynamic region;
#: scales the partial-reconfiguration charge the cold offload pays.
SMALL_REGION_FRACTION = 0.06

#: The planner must stay within this factor of the best pure strategy.
TRACKING_BOUND = 1.10

TABLE_BYTES = 1 * MB
TUPLE_WIDTHS = (64, 256, 512)
SELECTIVITIES = (0.02, 0.1, 0.25, 0.5, 0.75, 1.0)

#: Upper bound of the generated uniform int64 column (see ``make_rows``).
_VALUE_RANGE = 2 ** 31


def scenario_config() -> FarviewConfig:
    """The ad-hoc-query test bench: small selection-only regions."""
    stack = OperatorStackConfig(
        reconfiguration_ns=cal.reconfiguration_latency_ns(
            SMALL_REGION_FRACTION))
    return FarviewConfig(memory=EXPERIMENT_MEMORY, operator_stack=stack)


def _cold_bench(config: FarviewConfig, buffer_capacity: int):
    sim = Simulator()
    node = FarviewNode(sim, config)
    client = FarviewClient(node, buffer_capacity=buffer_capacity)
    client.open_connection()
    return client


def _measure(width: int, selectivity: float, table_bytes: int,
             config: FarviewConfig) -> dict[str, float]:
    """One sweep point: the three strategies on identical cold benches."""
    num_tuples = table_bytes // width
    schema, rows = projection_workload(num_tuples, width, seed=14)
    cutoff = int(selectivity * _VALUE_RANGE)
    predicate = Compare("a", "<", cutoff)
    actual = float((rows["a"] < cutoff).mean()) if num_tuples else 0.0
    stats = PlanStats(selectivity=actual)
    query = Query(predicate=predicate, label="fig14")

    times: dict[str, float] = {}
    digests: dict[str, bytes] = {}
    for strategy in STRATEGIES:
        client = _cold_bench(config, table_bytes + 64 * 1024)
        table = FTable("S", schema, num_tuples)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        result, elapsed = client.far_view_planned(table, query,
                                                  placement=strategy,
                                                  stats=stats)
        times[strategy] = elapsed
        digests[strategy] = canonical_result_bytes(result)
    assert digests["ship"] == digests["offload"], "ship changed result bytes"
    assert digests["auto"] == digests["offload"], "auto changed result bytes"
    return times


def run(table_bytes: int = TABLE_BYTES,
        tuple_widths=TUPLE_WIDTHS,
        selectivities=SELECTIVITIES) -> list[ExperimentResult]:
    config = scenario_config()
    results = []
    for width in tuple_widths:
        off = Series("FV-off")
        ship = Series("FV-ship")
        auto = Series("FV-auto")
        worst_tracking = 0.0
        for selectivity in selectivities:
            times = _measure(width, selectivity, table_bytes, config)
            off.add(selectivity, us(times["offload"]))
            ship.add(selectivity, us(times["ship"]))
            auto.add(selectivity, us(times["auto"]))
            best = min(times["offload"], times["ship"])
            tracking = times["auto"] / best
            worst_tracking = max(worst_tracking, tracking)
            assert tracking <= TRACKING_BOUND, (
                f"auto planner off the min by {tracking:.2f}x at "
                f"width={width} selectivity={selectivity}")
        results.append(ExperimentResult(
            experiment_id=f"fig14_w{width}",
            title=(f"Cost-based placement, {width} B tuples, "
                   f"{table_bytes // 1024} kB table (cold region)"),
            x_label="selectivity", y_label="us",
            series=[off, ship, auto],
            notes=[
                "ship wins the selective corner (reconfiguration "
                "dominates); offload wins as selectivity rises and "
                "tuples narrow",
                f"FV-auto tracks min(FV-off, FV-ship) within "
                f"{(worst_tracking - 1) * 100:.1f}% "
                f"(bound {(TRACKING_BOUND - 1) * 100:.0f}%)",
            ]))
    return results
