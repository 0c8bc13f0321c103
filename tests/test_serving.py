"""The tenant serving layer: sessions, coalescing, fair admission (PR 10).

Unit coverage for :mod:`repro.core.serving` on small single-node pools;
the scale story (100-10,000 tenants, open loop) lives in
``experiments/fig21_serving.py`` and its shape tests.
"""

import pytest

from repro.common.config import FarviewConfig, MemoryConfig, OperatorStackConfig
from repro.common.errors import FaultError, QueryError
from repro.common.expr import eval_mask
from repro.core.elasticity import RegionLeaseManager
from repro.core.faults import FaultEvent, FaultInjector, FaultPlan
from repro.core.node import FarviewNode
from repro.core.query import select_star
from repro.core.serving import FrontDoor, ScanShape, TenantSession
from repro.sim.engine import Simulator
from repro.workloads.generator import open_loop_arrivals, selection_workload

KB = 1024
MB = 1024 * KB


def make_door(regions=2, policy="fifo", coalesce=True):
    sim = Simulator()
    node = FarviewNode(sim, FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=8 * MB,
                            page_size=64 * KB),
        operator_stack=OperatorStackConfig(regions=regions)))
    manager = RegionLeaseManager(node, policy=policy)
    return sim, node, FrontDoor(manager, coalesce=coalesce)


def make_shape(name="hot", rows=128, seed=7):
    wl = selection_workload(rows, 0.5, seed=seed)
    return ScanShape(name, wl.schema, wl.rows, select_star(wl.predicate)), wl


def test_session_serves_correct_rows_and_accounts():
    sim, node, door = make_door()
    shape, wl = make_shape()
    session = door.session("t0")

    result = sim.run_process(session.request_proc(shape))
    expected = int(eval_mask(wl.predicate, wl.rows).sum())
    assert len(result.rows()) == expected
    assert session.submitted == session.completed == 1
    assert session.failed == 0
    assert session.latencies_ns[0] > 0
    assert door.requests == door.executions == 1
    assert door.coalesced == 0
    # The lease came back: the pool is idle again.
    assert node.free_regions == 2
    assert door.manager.live_leases == 0


def test_identical_scans_coalesce_onto_one_execution():
    sim, node, door = make_door(regions=1)
    shape, _wl = make_shape()
    sessions = [door.session(f"t{i}") for i in range(6)]

    def main():
        procs = [s.submit(shape) for s in sessions]
        results = yield sim.all_of(procs)
        return results

    results = sim.run_process(main())
    assert door.requests == 6
    assert door.executions == 1          # one lease, one upload, one scan
    assert door.coalesced == 5
    assert all(r is results[0] for r in results)  # shared result object
    assert len({rec.sha256 for rec in door.records}) == 1
    assert sum(rec.led for rec in door.records) == 1
    assert all(s.completed == 1 for s in sessions)


def test_coalescing_off_executes_every_request():
    sim, _node, door = make_door(regions=1, coalesce=False)
    shape, _wl = make_shape()
    sessions = [door.session(f"t{i}") for i in range(4)]

    def main():
        yield sim.all_of([s.submit(shape) for s in sessions])

    sim.run_process(main())
    assert door.executions == door.requests == 4
    assert door.coalesced == 0
    assert len({rec.sha256 for rec in door.records}) == 1  # still identical


def test_late_arrival_starts_a_fresh_execution():
    sim, _node, door = make_door()
    shape, _wl = make_shape()
    session = door.session("t0")
    sim.run_process(session.request_proc(shape))
    sim.run_process(session.request_proc(shape))
    # The gate was removed before it triggered: no stale coalescing.
    assert door.executions == 2
    assert door.coalesced == 0


def test_distinct_shapes_do_not_coalesce():
    sim, _node, door = make_door(regions=2)
    shape_a, _ = make_shape("a", seed=1)
    shape_b, _ = make_shape("b", seed=2)
    session = door.session("t0")

    def main():
        yield sim.all_of([session.submit(shape_a), session.submit(shape_b)])

    sim.run_process(main())
    assert door.executions == 2
    assert door.coalesced == 0


def test_leader_failure_propagates_to_coalesced_followers():
    """A node crash mid-execution must fail the leader *and* every
    coalesced follower with the same typed error — never a hang, never a
    partial result."""
    sim, node, door = make_door(regions=1)
    shape, _wl = make_shape(rows=2048)
    sessions = [door.session(f"t{i}") for i in range(3)]
    outcomes = []

    def request(session):
        try:
            yield from session.request_proc(shape)
        except FaultError as exc:
            outcomes.append(("err", type(exc).__name__))
        else:
            outcomes.append(("ok", None))

    def main():
        procs = [sim.process(request(s)) for s in sessions]
        # Crash while the leader's scan is in flight.
        FaultInjector(node, FaultPlan([
            FaultEvent(at_ns=sim.now + 1_000.0, kind="node_crash"),
        ])).install()
        yield sim.all_of(procs)

    sim.run_process(main())
    assert [tag for tag, _ in outcomes] == ["err"] * 3
    assert len({detail for _tag, detail in outcomes}) == 1  # same type
    assert all(s.failed == 1 and s.completed == 0 for s in sessions)
    assert door.manager.live_leases == 0  # the lease was reclaimed


def test_fair_policy_favors_heavy_sessions_under_contention():
    sim, _node, door = make_door(regions=1, policy="fair", coalesce=False)
    shape, _wl = make_shape()
    light = door.session("light", weight=1.0)
    heavy = door.session("heavy", weight=4.0)

    def main():
        procs = [light.submit(shape) for _ in range(4)]
        procs += [heavy.submit(shape) for _ in range(4)]
        yield sim.all_of(procs)

    sim.run_process(main())
    mean = lambda xs: sum(xs) / len(xs)
    # Weight 4 buys earlier grants, hence lower queueing latency.
    assert mean(heavy.latencies_ns) < mean(light.latencies_ns)
    # Of the first four completions, at least three are the heavy tenant
    # (start-time fair queueing: 4 grants per light grant, minus the
    # head-of-line request that never queued).
    first_four = [rec.tenant for rec in door.records[:4]]
    assert first_four.count("heavy") >= 3


def test_session_weight_must_be_positive():
    _sim, _node, door = make_door()
    with pytest.raises(QueryError, match="weight"):
        door.session("bad", weight=0.0)


def test_open_loop_arrivals_are_seeded_and_bounded():
    a = open_loop_arrivals(16, mean_gap_ns=1_000.0, horizon_ns=4_000.0,
                           seed=9)
    b = open_loop_arrivals(16, mean_gap_ns=1_000.0, horizon_ns=4_000.0,
                           seed=9)
    c = open_loop_arrivals(16, mean_gap_ns=1_000.0, horizon_ns=4_000.0,
                           seed=10)
    assert a == b                      # deterministic
    assert a != c                      # seed actually matters
    assert all(stream for stream in a)  # every tenant submits at least once
    assert all(0.0 <= t < 4_000.0 for stream in a for t in stream)
    assert all(stream == sorted(stream) for stream in a)
    with pytest.raises(QueryError):
        open_loop_arrivals(4, mean_gap_ns=0.0, horizon_ns=100.0)


def test_submit_at_schedules_open_loop_arrivals():
    sim, _node, door = make_door()
    shape, _wl = make_shape()
    session = door.session("t0")

    def main():
        procs = [session.submit_at(at, shape) for at in (50.0, 10.0, 30.0)]
        yield sim.all_of(procs)

    sim.run_process(main())
    assert session.completed == 3
    starts = sorted(rec.submitted_ns for rec in door.records)
    assert starts == [10.0, 30.0, 50.0]
