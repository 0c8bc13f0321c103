"""Figure 21 (repo extension): the tenant serving layer under open-loop load.

The paper's evaluation drives six lockstep clients; the pitch (§1) is a
pool serving *many* compute-side query threads.  This experiment drives
the serving layer — :class:`~repro.core.serving.TenantSession` +
:class:`~repro.core.serving.FrontDoor` over the repaired
:class:`~repro.core.elasticity.RegionLeaseManager` — with 100 to 10,000
simulated tenants submitting open-loop (seeded Poisson arrivals that keep
coming whether or not earlier requests finished):

* **fig21a** — request latency percentiles (p50/p99, µs) vs the number of
  tenants.  The offered load grows 100×; coalescing of identical scans
  bounds the tail: the p99 grows by a small factor, not by the load
  factor (graceful degradation, no collapse).
* **fig21b** — offered vs served request throughput (requests/ms) and
  actually executed scans/ms on the same sweep: served tracks offered
  across the whole range, while executions saturate at the pool's
  capacity — the gap is the front door's batching at work.
* **fig21c** — weighted fair sharing: a saturated two-class storm (equal
  halves, heavy class weight w ∈ {2, 4, 8}) under ``policy="fair"`` vs
  plain FIFO.  Fair queueing buys the heavy class proportionally lower
  mean latency; FIFO is weight-blind.

Correctness is asserted inline, not just plotted:

* the run drains: every request of every tenant completes — zero starved
  tenants at every load point (the liveness/fairness fixes of PR 10 are
  load-bearing here);
* every served result — leader or coalesced follower — is
  sha256-identical to a serial replay of its shape on a fresh
  single-client bench;
* bounded degradation: the p99 at 10,000 tenants stays within a fixed
  small factor of the p99 at 100 tenants, and served throughput never
  drops as offered load grows;
* batching is real: at the top load point the pool executes at most a
  tenth of the requests it serves.

Every run is deterministic: same seeds → same arrivals → same grant
order, same latencies, same bytes.
"""

from __future__ import annotations

import hashlib

from ..core.elasticity import RegionLeaseManager
from ..core.api import canonical_result_bytes
from ..core.node import FarviewNode
from ..core.query import group_by_sum, select_distinct, select_star
from ..core.serving import FrontDoor, ScanShape
from ..sim.engine import Simulator
from ..sim.stats import Series, percentile
from ..workloads.generator import (distinct_workload, groupby_workload,
                                   open_loop_arrivals, selection_workload)
from .common import (EXPERIMENT_CONFIG, ExperimentResult, make_bench,
                     upload_table, us)

KB = 1024

NUM_NODES = 2                 # pool: 2 nodes x 6 dynamic regions
ROWS = 512                    # 32 KiB per shape image
TENANT_COUNTS = (100, 300, 1_000, 3_000, 10_000)
MEAN_GAP_NS = 200_000.0       # per-tenant mean inter-arrival (open loop)
HORIZON_NS = 400_000.0        # arrival window per run
BASE_SEED = 210

#: fig21c saturated two-class storm.
FAIR_TENANTS = 16             # per class
FAIR_ROUNDS = 3               # requests per tenant
FAIR_WEIGHTS = (2.0, 4.0, 8.0)

#: Bounded degradation: p99 at the top load point stays within this
#: factor of the p99 at the bottom one (measured ratio ~1.0x — coalescing
#: flattens the tail — so 3x is real slack, not a vacuous bound).
P99_BOUND_FACTOR = 3.0
#: Batching is real: executed scans <= requests/10 at the top point.
COALESCE_FACTOR = 10


def make_shapes() -> list[ScanShape]:
    """Four query shapes over small tables — the hot working set many
    tenants keep re-asking for (what makes coalescing representative)."""
    sel_hot = selection_workload(ROWS, 0.5, seed=BASE_SEED)
    sel_cold = selection_workload(ROWS, 0.05, seed=BASE_SEED + 1)
    d_schema, d_rows = distinct_workload(ROWS, 64, seed=BASE_SEED + 2)
    g_schema, g_rows = groupby_workload(ROWS, 32, seed=BASE_SEED + 3)
    return [
        ScanShape("f21-sel-hot", sel_hot.schema, sel_hot.rows,
                  select_star(sel_hot.predicate)),
        ScanShape("f21-sel-cold", sel_cold.schema, sel_cold.rows,
                  select_star(sel_cold.predicate)),
        ScanShape("f21-distinct", d_schema, d_rows, select_distinct(["a"])),
        ScanShape("f21-groupby", g_schema, g_rows, group_by_sum("a", "b")),
    ]


def serial_reference(shapes) -> dict[str, str]:
    """Serial replay: each shape once on a fresh single-client bench;
    returns shape name -> sha256 of the canonical result bytes."""
    shas: dict[str, str] = {}
    for shape in shapes:
        bench = make_bench()
        table = upload_table(bench, shape.name, shape.schema, shape.rows)
        bench.client.far_view(table, shape.query)  # deploy the pipeline
        result, _ = bench.client.far_view(table, shape.query)
        shas[shape.name] = hashlib.sha256(
            canonical_result_bytes(result)).hexdigest()
    return shas


def _make_pool(policy: str = "fair", num_nodes: int = NUM_NODES,
               coalesce: bool = True):
    sim = Simulator()
    nodes = [FarviewNode(sim, EXPERIMENT_CONFIG) for _ in range(num_nodes)]
    manager = RegionLeaseManager(nodes, policy=policy)
    return sim, FrontDoor(manager, coalesce=coalesce)


def run_open_loop_trial(num_tenants: int, shapes, seed: int = BASE_SEED,
                        mean_gap_ns: float = MEAN_GAP_NS,
                        horizon_ns: float = HORIZON_NS):
    """One deterministic open-loop run; returns the drained front door.

    Each tenant gets a seeded Poisson arrival stream; each arrival asks
    for one of the hot shapes (round-robin over ``tenant + i`` so every
    shape sees every load level).  The run *drains*: the simulator runs
    until every submitted request completed.
    """
    sim, door = _make_pool()
    schedules = open_loop_arrivals(num_tenants, mean_gap_ns, horizon_ns,
                                   seed=seed)
    procs = []
    for tenant, times in enumerate(schedules):
        session = door.session(tenant)
        for i, at_ns in enumerate(times):
            shape = shapes[(tenant + i) % len(shapes)]
            procs.append(session.submit_at(at_ns, shape))
    sim.run()
    assert all(p.triggered and p.ok for p in procs), \
        "fig21: a request hung or failed in a fault-free run"
    return sim, door


def _assert_serving_correct(door, reference, label: str) -> None:
    """The experiment's correctness teeth (see module docstring)."""
    for session in door.sessions:
        assert session.failed == 0, f"{label}: request failed fault-free"
        assert session.completed == session.submitted, \
            f"{label}: tenant {session.tenant} starved " \
            f"({session.completed}/{session.submitted})"
        assert session.submitted >= 1
    for record in door.records:
        assert record.sha256 == reference[record.shape], \
            f"{label}: {record.shape} diverged from the serial replay"


def run_load_sweep(tenant_counts=TENANT_COUNTS,
                   shapes=None) -> tuple[ExperimentResult, ExperimentResult]:
    """fig21a (latency percentiles) + fig21b (throughput) vs tenants."""
    shapes = make_shapes() if shapes is None else shapes
    reference = serial_reference(shapes)
    p50 = Series("p50")
    p99 = Series("p99")
    offered = Series("offered")
    served = Series("served")
    executed = Series("executed")
    p99_by_count: dict[int, float] = {}
    served_by_count: dict[int, float] = {}
    for num_tenants in tenant_counts:
        sim, door = run_open_loop_trial(num_tenants, shapes)
        _assert_serving_correct(door, reference,
                                f"fig21[{num_tenants} tenants]")
        latencies = door.latencies_ns()
        duration_ms = sim.now / 1e6
        p50.add(num_tenants, us(percentile(latencies, 50)))
        p99_us = us(percentile(latencies, 99))
        p99.add(num_tenants, p99_us)
        p99_by_count[num_tenants] = p99_us
        offered.add(num_tenants, door.requests / (HORIZON_NS / 1e6))
        served_rate = len(door.records) / duration_ms
        served.add(num_tenants, served_rate)
        served_by_count[num_tenants] = served_rate
        executed.add(num_tenants, door.executions / duration_ms)
        if num_tenants == max(tenant_counts):
            assert door.executions * COALESCE_FACTOR <= door.requests, \
                "fig21: coalescing absorbed too little at the top load"
    low, high = min(tenant_counts), max(tenant_counts)
    assert p99_by_count[high] <= P99_BOUND_FACTOR * p99_by_count[low], \
        f"fig21: p99 degraded {p99_by_count[high] / p99_by_count[low]:.1f}x " \
        f"over a {high / low:.0f}x load increase (bound {P99_BOUND_FACTOR}x)"
    assert served_by_count[high] >= served_by_count[low], \
        "fig21: served throughput collapsed as offered load grew"
    result_a = ExperimentResult(
        experiment_id="fig21a",
        title=f"tenant serving: latency percentiles under open-loop load, "
              f"{NUM_NODES}-node pool",
        x_label="tenants", y_label="latency us",
        series=[p50, p99],
        notes=[f"{len(make_shapes())} hot shapes of {ROWS * 64 // KB} KiB; "
               f"per-tenant Poisson arrivals, mean gap "
               f"{MEAN_GAP_NS / 1000:.0f} us over a "
               f"{HORIZON_NS / 1000:.0f} us window",
               "every request completes (zero starved tenants) and every "
               "result is sha256-identical to the serial replay",
               f"graceful degradation: p99 stays within "
               f"{P99_BOUND_FACTOR:.0f}x of the 100-tenant p99 across a "
               f"100x load increase"])
    result_b = ExperimentResult(
        experiment_id="fig21b",
        title="tenant serving: offered vs served throughput",
        x_label="tenants", y_label="requests/ms",
        series=[offered, served, executed],
        notes=["served tracks offered across the sweep; 'executed' is the "
               "scans the pool actually ran — the gap is front-door "
               "coalescing of identical in-flight requests",
               "executions saturate at pool capacity instead of queueing "
               "without bound (no collapse)"])
    return result_a, result_b


def run_fairness(weights=FAIR_WEIGHTS, shapes=None) -> ExperimentResult:
    """fig21c: heavy vs light mean latency, fair policy vs FIFO, in a
    saturated two-class storm (coalescing off so admission order is the
    only mechanism in play)."""
    shapes = make_shapes() if shapes is None else shapes
    reference = serial_reference(shapes)
    series = {"fair heavy": Series("fair heavy"),
              "fair light": Series("fair light"),
              "fifo heavy": Series("fifo heavy"),
              "fifo light": Series("fifo light")}

    def storm(policy: str, heavy_weight: float):
        sim, door = _make_pool(policy=policy, num_nodes=1, coalesce=False)
        classes = [("heavy", heavy_weight), ("light", 1.0)]
        sessions = {cls: [door.session((cls, t), weight=weight)
                          for t in range(FAIR_TENANTS)]
                    for cls, weight in classes}
        # Interleave the two classes request-by-request so FIFO sees a
        # perfectly alternating arrival order: any latency gap is then
        # the admission policy's doing, not the submission order's.
        procs = []
        for i in range(FAIR_ROUNDS):
            for t in range(FAIR_TENANTS):
                for cls, _w in classes:
                    shape = shapes[(t + i) % len(shapes)]
                    procs.append(sessions[cls][t].submit(shape))
        sim.run()
        assert all(p.triggered and p.ok for p in procs), \
            "fig21c: a storm request hung"
        _assert_serving_correct(door, reference, f"fig21c[{policy}]")
        means = {}
        for cls, _w in classes:
            lats = [lat for s in door.sessions if s.tenant[0] == cls
                    for lat in s.latencies_ns]
            means[cls] = sum(lats) / len(lats)
        return means

    for weight in weights:
        fair = storm("fair", weight)
        fifo = storm("fifo", weight)
        assert fair["heavy"] < fair["light"], \
            f"fig21c: weight {weight} bought no latency advantage"
        # FIFO is weight-blind: both classes see statistically even
        # service (identical symmetric storms, only arrival interleaving
        # differs) — the fair-policy gap must dominate the FIFO gap.
        fair_gap = fair["light"] / fair["heavy"]
        fifo_gap = max(fifo["light"], fifo["heavy"]) / \
            min(fifo["light"], fifo["heavy"])
        assert fair_gap > fifo_gap, \
            "fig21c: fair queueing indistinguishable from FIFO"
        series["fair heavy"].add(weight, us(fair["heavy"]))
        series["fair light"].add(weight, us(fair["light"]))
        series["fifo heavy"].add(weight, us(fifo["heavy"]))
        series["fifo light"].add(weight, us(fifo["light"]))
    return ExperimentResult(
        experiment_id="fig21c",
        title=f"weighted fair sharing: {2 * FAIR_TENANTS}-tenant saturated "
              f"storm, heavy class weight swept",
        x_label="heavy-class weight", y_label="mean latency us",
        series=list(series.values()),
        notes=["start-time fair queueing grants a weight-w tenant w "
               "leases per weight-1 lease under contention; FIFO ignores "
               "weights entirely",
               "coalescing disabled so admission order is the only "
               "mechanism measured"])


def run() -> list[ExperimentResult]:
    result_a, result_b = run_load_sweep()
    return [result_a, result_b, run_fairness()]
