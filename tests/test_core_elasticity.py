"""Region leasing / admission control (elasticity future work).

Covers the original single-node FIFO behaviour and the cluster extension:
lease balancing across the nodes of a pool (most-free-regions placement,
FIFO waiting when the whole pool is busy).
"""

import pytest

from repro.common.config import FarviewConfig, MemoryConfig, OperatorStackConfig
from repro.common.errors import QueryError
from repro.common.expr import eval_mask
from repro.core.cluster import FarviewCluster
from repro.core.elasticity import RegionLeaseManager
from repro.core.node import FarviewNode
from repro.core.query import select_star
from repro.core.table import FTable
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import selection_workload

KB = 1024
MB = 1024 * KB


def small_config(regions=2):
    return FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=8 * MB,
                            page_size=64 * KB),
        operator_stack=OperatorStackConfig(regions=regions))


def make_node(regions=2):
    sim = Simulator()
    return sim, FarviewNode(sim, small_config(regions))


def make_cluster(num_nodes=2, regions=2):
    sim = Simulator()
    return sim, FarviewCluster(sim, num_nodes, small_config(regions))


def test_acquire_within_capacity_is_immediate():
    sim, node = make_node(regions=2)
    manager = RegionLeaseManager(node)

    def main():
        a = yield from manager.acquire()
        b = yield from manager.acquire()
        return a, b, sim.now

    a, b, now = sim.run_process(main())
    assert a.connection.region.index != b.connection.region.index
    assert now == 0.0
    assert manager.leases_granted == 2


def test_acquire_waits_for_release_fifo():
    sim, node = make_node(regions=1)
    manager = RegionLeaseManager(node)
    order = []

    def holder():
        client = yield from manager.acquire()
        order.append("holder")
        yield sim.timeout(100.0)
        manager.release(client)

    def waiter(tag, delay):
        yield sim.timeout(delay)
        client = yield from manager.acquire()
        order.append((tag, sim.now))
        manager.release(client)

    def main():
        procs = [sim.process(holder()),
                 sim.process(waiter("first", 1.0)),
                 sim.process(waiter("second", 2.0))]
        yield sim.all_of(procs)

    sim.run_process(main())
    assert order[0] == "holder"
    assert order[1][0] == "first"       # FIFO: earlier request served first
    assert order[1][1] >= 100.0
    assert order[2][0] == "second"
    assert manager.max_queue_depth == 2


def test_with_lease_releases_on_success():
    sim, node = make_node(regions=1)
    manager = RegionLeaseManager(node)

    def body(client):
        yield sim.timeout(5.0)
        return client.connection.region.index

    def main():
        first = yield from manager.with_lease(body)
        second = yield from manager.with_lease(body)
        return first, second

    first, second = sim.run_process(main())
    assert first == second == 0  # region recycled
    assert node.free_regions == 1


def test_with_lease_releases_on_failure():
    sim, node = make_node(regions=1)
    manager = RegionLeaseManager(node)

    def failing(client):
        yield sim.timeout(1.0)
        raise RuntimeError("query exploded")

    def main():
        try:
            yield from manager.with_lease(failing)
        except RuntimeError:
            pass
        # The region must be free again for the next tenant.
        client = yield from manager.acquire()
        return client.connection.region.index

    assert sim.run_process(main()) == 0


def test_leased_clients_run_real_queries():
    sim, node = make_node(regions=2)
    manager = RegionLeaseManager(node)
    wl = selection_workload(512, 0.5)
    completions = []

    def tenant(i):
        def body(client):
            table = FTable(f"T{i}", wl.schema, len(wl.rows))
            client.alloc_table_mem(table)
            yield from client.table_write_proc(table, wl.rows)
            result = yield from client.far_view_proc(
                table, select_star(wl.predicate))
            return len(result.rows())
        count = yield from manager.with_lease(body)
        completions.append((i, count, sim.now))

    def main():
        procs = [sim.process(tenant(i)) for i in range(5)]
        yield sim.all_of(procs)

    sim.run_process(main())
    assert len(completions) == 5
    expected = int(eval_mask(wl.predicate, wl.rows).sum())
    assert all(count == expected for _, count, _ in completions)
    # With 2 regions and 5 tenants, some had to queue.
    assert manager.max_queue_depth >= 1
    assert node.free_regions == 2


def test_new_arrival_cannot_barge_past_woken_waiter():
    """A release hands the region to the oldest waiter even if a newcomer
    calls acquire() inside the handoff window (before the waiter resumes)."""
    sim, node = make_node(regions=1)
    manager = RegionLeaseManager(node)
    order = []

    def waiter():
        yield sim.timeout(1.0)
        client = yield from manager.acquire()
        order.append(("waiter", sim.now))
        manager.release(client)

    def main():
        holder = yield from manager.acquire()
        w = sim.process(waiter())
        yield sim.timeout(5.0)  # the waiter is queued by now
        manager.release(holder)
        # Synchronously, before the woken waiter resumes: try to barge.
        barger = yield from manager.acquire()
        order.append(("barger", sim.now))
        manager.release(barger)
        yield w

    sim.run_process(main())
    assert [tag for tag, _ in order] == ["waiter", "barger"]


# -- cluster lease balancing ---------------------------------------------------

def test_cluster_leases_spread_across_nodes():
    sim, cluster = make_cluster(num_nodes=3, regions=2)
    manager = RegionLeaseManager(cluster)

    def main():
        clients = []
        for _ in range(6):
            clients.append((yield from manager.acquire()))
        return clients

    clients = sim.run_process(main())
    # Greedy most-free placement fills the pool evenly: 2 leases per node.
    assert manager.leases_per_node == [2, 2, 2]
    nodes_used = {id(c.node) for c in clients}
    assert len(nodes_used) == 3
    for client in clients:
        manager.release(client)
    assert manager.leases_per_node == [0, 0, 0]
    assert cluster.free_regions == 6


def test_cluster_release_rebalances_next_lease():
    sim, cluster = make_cluster(num_nodes=2, regions=2)
    manager = RegionLeaseManager(cluster)

    def main():
        held = []
        for _ in range(3):
            held.append((yield from manager.acquire()))
        # Node 0 holds 2 leases, node 1 holds 1: next grant lands on 1.
        assert manager.leases_per_node == [2, 1]
        fourth = yield from manager.acquire()
        assert manager.leases_per_node == [2, 2]
        # Free both leases of node 0; the next two land there again.
        manager.release(held[0])
        manager.release(held[2])
        assert manager.leases_per_node == [0, 2]
        fifth = yield from manager.acquire()
        return fifth

    fifth = sim.run_process(main())
    assert fifth.node is cluster.node(0)


def test_cluster_full_pool_waits_fifo_across_nodes():
    sim, cluster = make_cluster(num_nodes=2, regions=1)
    manager = RegionLeaseManager(cluster)
    order = []

    def holder(delay):
        client = yield from manager.acquire()
        order.append(("hold", sim.now))
        yield sim.timeout(delay)
        manager.release(client)

    def waiter(tag, delay):
        yield sim.timeout(delay)
        client = yield from manager.acquire()
        order.append((tag, sim.now))
        manager.release(client)

    def main():
        procs = [sim.process(holder(100.0)), sim.process(holder(200.0)),
                 sim.process(waiter("first", 1.0)),
                 sim.process(waiter("second", 2.0))]
        yield sim.all_of(procs)

    sim.run_process(main())
    tags = [tag for tag, _ in order]
    assert tags[:2] == ["hold", "hold"]
    assert tags[2:] == ["first", "second"]   # FIFO across the whole pool
    assert order[2][1] >= 100.0              # woken by the first release
    assert manager.max_queue_depth == 2


def test_cluster_leased_queries_execute_on_their_node():
    sim, cluster = make_cluster(num_nodes=2, regions=2)
    manager = RegionLeaseManager(cluster)
    wl = selection_workload(256, 0.5)
    counts = []

    def tenant(i):
        def body(client):
            table = FTable(f"L{i}", wl.schema, len(wl.rows))
            client.alloc_table_mem(table)
            yield from client.table_write_proc(table, wl.rows)
            result = yield from client.far_view_proc(
                table, select_star(wl.predicate))
            return len(result.rows())
        counts.append((yield from manager.with_lease(body)))

    def main():
        yield sim.all_of([sim.process(tenant(i)) for i in range(6)])

    sim.run_process(main())
    expected = int(eval_mask(wl.predicate, wl.rows).sum())
    assert counts == [expected] * 6
    # Both nodes actually served queries.
    assert all(node.queries_served > 0 for node in cluster.nodes)


def test_manager_accepts_node_sequence_and_validates():
    sim = Simulator()
    nodes = [FarviewNode(sim, small_config()) for _ in range(2)]
    manager = RegionLeaseManager(nodes)
    assert manager.free_regions == 4
    with pytest.raises(QueryError):
        RegionLeaseManager([])
    with pytest.raises(QueryError):
        other = FarviewNode(Simulator(), small_config())
        RegionLeaseManager([nodes[0], other])  # different simulators


def test_release_of_foreign_client_is_rejected():
    sim, cluster = make_cluster(num_nodes=2, regions=2)
    manager = RegionLeaseManager(cluster)
    from repro.core.api import FarviewClient
    foreign = FarviewClient(FarviewNode(sim, small_config()))
    foreign.open_connection()
    with pytest.raises(QueryError, match="pool"):
        manager.release(foreign)


# -- exception safety under faults (PR 6) -----------------------------------

def test_failing_tenant_wakes_fifo_waiters():
    """A tenant whose body raises must not strand the queue: the lease
    is released and the oldest waiter is woken, in FIFO order."""
    sim, node = make_node(regions=1)
    manager = RegionLeaseManager(node)
    order = []

    def failing(client):
        yield sim.timeout(1.0)
        raise RuntimeError("tenant exploded")

    def tenant(tag):
        def body(client):
            order.append((tag, sim.now))
            yield sim.timeout(1.0)
            return tag
        result = yield from manager.with_lease(body)
        return result

    def main():
        crash = sim.process(manager.with_lease(failing), "crasher")
        waiter_a = sim.process(tenant("a"), "tenant-a")
        waiter_b = sim.process(tenant("b"), "tenant-b")
        yield waiter_a
        yield waiter_b
        assert not crash.ok and isinstance(crash.value, RuntimeError)

    sim.run_process(main())
    assert [tag for tag, _ in order] == ["a", "b"]
    assert manager.queued == 0
    assert node.free_regions == 1
    assert manager.leases_per_node == [0]


# -- liveness / fairness / accounting regressions (PR 10) --------------------

def test_waiter_parked_with_pool_down_wakes_on_recovery():
    """Liveness regression: a waiter that queues while every node is
    failed and no leases are outstanding has no release to wake it.  The
    recover hook must wake it — on the old code this schedule deadlocks
    (``run_process`` raises ``SimulationError``)."""
    from repro.core.faults import FaultEvent, FaultInjector, FaultPlan

    sim, node = make_node(regions=1)
    manager = RegionLeaseManager(node)
    injector = FaultInjector(node, FaultPlan([
        FaultEvent(at_ns=5.0, kind="node_crash"),
        FaultEvent(at_ns=50.0, kind="node_recover"),
    ])).install()

    def holder():
        client = yield from manager.acquire()
        yield sim.timeout(10.0)
        # The node is down by now; release still frees the books but
        # leaves the waiter with no live capacity — and no later release.
        manager.release(client)

    def waiter():
        yield sim.timeout(20.0)
        client = yield from manager.acquire()
        granted_at = sim.now
        manager.release(client)
        return granted_at

    def main():
        sim.process(holder())
        w = sim.process(waiter())
        granted_at = yield w
        return granted_at

    granted_at = sim.run_process(main())
    assert granted_at == 50.0  # exactly the recovery instant
    assert [ev[1] for ev in injector.applied] == ["node_crash",
                                                  "node_recover"]
    assert manager.live_leases == sum(manager.leases_per_node) == 0


def test_acquire_retries_other_nodes_when_open_fails():
    """Liveness regression: when the picked node's open fails
    transiently, acquire must immediately try the remaining nodes.  On
    the old code the tenant parks forever (no release ever comes)."""
    from repro.common.errors import NodeFailedError

    sim, cluster = make_cluster(num_nodes=2, regions=2)
    manager = RegionLeaseManager(cluster)

    # Node 0 (more free regions -> picked first) refuses every open
    # without being marked failed — a transient connect-time fault.
    def refuse(*_a, **_k):
        raise NodeFailedError("connect refused (transient)")
    cluster.node(0).open_connection = refuse

    def main():
        client = yield from manager.acquire()
        return client

    client = sim.run_process(main())
    assert client.node is cluster.node(1)
    assert sim.now == 0.0  # granted immediately, not parked
    assert manager.leases_per_node == [0, 1]


def test_woken_waiter_keeps_queue_position_on_transient_failure():
    """Fairness regression: a waiter woken by a release whose grant then
    fails must keep its place at the head of the queue.  On the old code
    it re-appends at the back and the younger waiter is served first."""
    from repro.core.faults import FaultInjector

    sim, cluster = make_cluster(num_nodes=2, regions=1)
    manager = RegionLeaseManager(cluster)
    grants = []

    def holder(tag, hold_ns):
        client = yield from manager.acquire()
        yield sim.timeout(hold_ns)
        manager.release(client)

    def waiter(tag, delay):
        yield sim.timeout(delay)
        client = yield from manager.acquire()
        grants.append((tag, sim.now))
        yield sim.timeout(1.0)
        manager.release(client)

    def main():
        h0 = yield from manager.acquire()   # node 0
        h1 = yield from manager.acquire()   # node 1
        w1 = sim.process(waiter("first", 1.0))
        w2 = sim.process(waiter("second", 2.0))
        yield sim.timeout(10.0)
        # Node 0 dies; releasing its lease wakes "first", whose grant
        # attempt then finds no live capacity (node 1 still leased) and
        # must re-park *at the head*.
        FaultInjector(cluster).crash(0)
        manager.release(h0)
        yield sim.timeout(10.0)
        # Node 1's release is the real capacity: "first" must win it.
        manager.release(h1)
        yield sim.all_of([w1, w2])

    sim.run_process(main())
    assert [tag for tag, _ in grants] == ["first", "second"]


def test_accounting_invariant_under_crash_and_raising_body():
    """Accounting regression: crash-while-leased releases and bodies that
    raise mid-process must leave ``sum(leases_per_node) == live_leases``
    and a monotone ``max_queue_depth``."""
    from repro.core.faults import FaultInjector

    sim, cluster = make_cluster(num_nodes=2, regions=1)
    manager = RegionLeaseManager(cluster)
    injector = FaultInjector(cluster)

    def exploding(client):
        yield sim.timeout(1.0)
        raise RuntimeError("tenant exploded")

    def main():
        depth_seen = 0
        victim = yield from manager.acquire()
        victim_index = cluster.nodes.index(victim.node)
        assert manager.live_leases == sum(manager.leases_per_node) == 1
        injector.crash(victim_index)
        manager.release(victim)  # release on a dead node
        assert manager.live_leases == sum(manager.leases_per_node) == 0
        try:
            yield from manager.with_lease(exploding)
        except RuntimeError:
            pass
        assert manager.live_leases == sum(manager.leases_per_node) == 0
        assert manager.max_queue_depth >= depth_seen  # monotone
        depth_seen = manager.max_queue_depth
        injector.recover(victim_index)
        survivor = yield from manager.acquire()
        assert manager.live_leases == sum(manager.leases_per_node) == 1
        manager.release(survivor)
        assert manager.max_queue_depth >= depth_seen
        return True

    assert sim.run_process(main()) is True
    assert manager.live_leases == sum(manager.leases_per_node) == 0


# -- weighted fair-share policy (PR 10) --------------------------------------

def test_fair_policy_orders_grants_by_virtual_finish_tags():
    """Start-time fair queueing: under contention a weight-2 tenant gets
    two grants per grant of a weight-1 tenant, by finish-tag order."""
    sim, node = make_node(regions=1)
    manager = RegionLeaseManager(node, policy="fair")
    grants = []

    def tenant(tag, weight):
        client = yield from manager.acquire(tenant=tag, weight=weight)
        grants.append(tag)
        yield sim.timeout(1.0)
        manager.release(client)

    def main():
        holder = yield from manager.acquire()
        # Queue 3 tickets per tenant while the region is held.  Tags:
        # A (w=1): 1, 2, 3;  B (w=2): 0.5, 1.0, 1.5 — ties to A by seq.
        procs = [sim.process(tenant("A", 1.0)) for _ in range(3)]
        procs += [sim.process(tenant("B", 2.0)) for _ in range(3)]
        yield sim.timeout(5.0)
        manager.release(holder)
        yield sim.all_of(procs)

    sim.run_process(main())
    assert grants == ["B", "A", "B", "B", "A", "A"]
    assert manager.max_queue_depth == 6


def test_fifo_remains_default_policy():
    sim, node = make_node(regions=1)
    assert RegionLeaseManager(node).policy == "fifo"
    with pytest.raises(QueryError, match="policy"):
        RegionLeaseManager(node, policy="wrr")
    with pytest.raises(QueryError, match="weight"):
        sim.run_process(RegionLeaseManager(node).acquire(weight=0.0))


def test_node_crash_mid_lease_releases_and_fails_over():
    """Crashing the leased node must not poison release(): the close is
    best-effort, the accounting is corrected, waiters are woken, and the
    next acquire lands on a surviving node."""
    from repro.core.faults import FaultInjector

    sim, cluster = make_cluster(num_nodes=2, regions=1)
    manager = RegionLeaseManager(cluster)

    def main():
        victim = yield from manager.acquire()
        victim_index = cluster.nodes.index(victim.node)
        # Fill the pool so the next tenant genuinely queues.
        other = yield from manager.acquire()
        waiter = sim.process(manager.acquire(), "queued-acquire")
        yield sim.timeout(1.0)
        assert manager.queued == 1

        FaultInjector(cluster).crash(victim_index)
        # close_connection now raises NodeFailedError server-side;
        # release must swallow it, fix the books, and wake the waiter.
        manager.release(victim)
        assert manager.leases_per_node[victim_index] == 0
        # The victim's region died with it, so free the survivor's too:
        # the woken waiter must land there, never on the dead node.
        manager.release(other)
        woken = yield waiter
        assert not woken.node.failed, "waiter was leased onto a dead node"
        manager.release(woken)
        # With the victim down and the pool idle, acquire skips it.
        replacement = yield from manager.acquire()
        assert not replacement.node.failed
        return True

    assert sim.run_process(main()) is True
    assert sum(manager.leases_per_node) == 1  # only `replacement` held
