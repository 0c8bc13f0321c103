"""Fault injection and degraded-mode execution.

The properties under test, in the order docs/FAULTS.md states them:

1. **Determinism** — the same plan against the same workload produces an
   identical applied-fault log, identical ``sim_ns``, and identical
   per-query outcomes; an *empty* plan is byte- and timing-identical to
   no fault layer at all.
2. **Typed failures, never wrong bytes** — a fault surfaces as a
   :class:`FaultError` subclass at the calling verb; a query either
   returns the exact no-fault bytes or raises.  Hangs are impossible
   (every test drains its simulator and asserts process completion).
3. **Recovery** — replica failover, retries under ``RetryPolicy``,
   broadcast re-replication, ship fallback on region failure, and the
   two-phase epoch abort each restore service without breaking 2.

``CHAOS_SEED`` (set by the CI chaos matrix) offsets every random plan
seed so each matrix leg explores a different schedule with the same
assertions.
"""

import hashlib
import os

import pytest

from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.errors import (DegradedResultError, FaultError,
                                 NodeFailedError, QueryError,
                                 RegionFailedError, RequestTimeoutError)
from repro.common.expr import eval_mask
from repro.core.api import ClusterClient, FarviewClient
from repro.core.cluster import FarviewCluster
from repro.core.cost_model import PlanStats
from repro.core.faults import (FaultEvent, FaultInjector, FaultPlan,
                               RetryPolicy)
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.query import select_star
from repro.core.table import FTable
from repro.sim.engine import Simulator
from repro.workloads.generator import selection_workload

KB = 1024
MB = 1024 * KB

#: CI chaos matrix: each leg runs the suite under a different seed offset.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

TEST_CONFIG = FarviewConfig(memory=MemoryConfig(
    channels=2, channel_capacity=8 * MB, page_size=64 * KB))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_single(buffer_capacity: int = 256 * KB):
    sim = Simulator()
    node = FarviewNode(sim, TEST_CONFIG)
    client = FarviewClient(node, buffer_capacity=buffer_capacity)
    client.open_connection()
    return sim, node, client


def upload(client, name: str, num_rows: int = 512, seed: int = 3):
    wl = selection_workload(num_rows, 0.5, seed=seed)
    table = FTable(name, wl.schema, num_rows)
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    return table, select_star(wl.predicate), wl


def make_cluster(num_nodes: int, replicas: int, num_rows: int = 512,
                 seed: int = 3):
    sim = Simulator()
    cluster = FarviewCluster(sim, num_nodes, TEST_CONFIG)
    cc = ClusterClient(cluster)
    cc.open_connection()
    wl = selection_workload(num_rows, 0.5, seed=seed)
    sharded = cc.create_table("T", wl.schema, wl.rows,
                              PartitionSpec(replicas=replicas))
    query = select_star(wl.predicate)
    cc.far_view(sharded, query)  # warm every shard pipeline
    return sim, cluster, cc, sharded, query, wl


# ---------------------------------------------------------------------------
# Plans and determinism
# ---------------------------------------------------------------------------

class TestPlans:
    def test_events_sorted_and_validated(self):
        plan = FaultPlan([FaultEvent(at_ns=30.0, kind="node_crash"),
                          FaultEvent(at_ns=10.0, kind="node_recover")])
        assert [ev.at_ns for ev in plan] == [10.0, 30.0]
        assert len(plan) == 2
        with pytest.raises(QueryError):
            FaultEvent(at_ns=0.0, kind="meteor_strike")
        with pytest.raises(QueryError):
            FaultEvent(at_ns=-1.0, kind="node_crash")
        with pytest.raises(QueryError):
            FaultEvent(at_ns=0.0, kind="link_degrade", loss=1.0)

    def test_random_plan_is_seed_reproducible(self):
        kwargs = dict(num_nodes=4, horizon_ns=100_000.0, crashes=2,
                      degrades=2, region_fails=1, stragglers=1)
        seed = 7 + CHAOS_SEED
        a = FaultPlan.random(seed, **kwargs)
        b = FaultPlan.random(seed, **kwargs)
        assert a.events == b.events
        assert "node_crash" in a.describe()
        # A different seed yields a different schedule.
        c = FaultPlan.random(seed + 1, **kwargs)
        assert c.events != a.events

    def test_injector_rejects_bad_targets(self):
        sim, node, _client = make_single()
        with pytest.raises(QueryError):
            FaultInjector("not a node")
        with pytest.raises(QueryError):
            FaultInjector([])
        other = FarviewNode(Simulator(), TEST_CONFIG)
        with pytest.raises(QueryError):
            FaultInjector([node, other])  # different simulators
        injector = FaultInjector(node, FaultPlan())
        injector.install()
        with pytest.raises(QueryError):
            injector.install()  # idempotence guard

    def test_same_plan_same_outcomes(self):
        """Same seed → identical fault log, sim_ns, and query outcomes."""

        def run_once():
            sim, cluster, cc, sharded, query, _wl = make_cluster(4, 2)
            cc.retry_policy = RetryPolicy(max_attempts=2,
                                          base_backoff_ns=1_000.0)
            plan = FaultPlan.random(11 + CHAOS_SEED, 4,
                                    horizon_ns=sim.now + 50_000.0,
                                    crashes=2, degrades=1)
            injector = FaultInjector(cluster, plan).install()
            outcomes = []

            def worker():
                for _round in range(4):
                    try:
                        result = yield from cc.far_view_proc(sharded, query)
                    except FaultError as exc:
                        outcomes.append(("err", type(exc).__name__))
                    else:
                        outcomes.append(("ok", sha(result.data)))

            proc = sim.process(worker())
            sim.run()
            assert proc.triggered
            return injector.applied, sim.now, outcomes

        first = run_once()
        second = run_once()
        assert first == second

    def test_empty_plan_is_invisible(self):
        """Installing an empty plan changes neither timing nor bytes."""

        def run_once(with_injector):
            sim, cluster, cc, sharded, query, _wl = make_cluster(2, 1)
            if with_injector:
                FaultInjector(cluster, FaultPlan()).install()
            result, _ = cc.far_view(sharded, query)
            return sim.now, sha(result.data)

        assert run_once(False) == run_once(True)


# ---------------------------------------------------------------------------
# Single-node failures: typed errors, no hangs
# ---------------------------------------------------------------------------

class TestSingleNodeFaults:
    def test_crash_before_request_raises_typed(self):
        sim, node, client = make_single()
        table, query, _wl = upload(client, "T")
        FaultInjector(node).crash(0)
        with pytest.raises(NodeFailedError):
            client.far_view(table, query)
        with pytest.raises(NodeFailedError):
            client.table_read(table)

    def test_crash_mid_stream_raises_and_never_hangs(self):
        sim, node, client = make_single()
        table, query, _wl = upload(client, "T", num_rows=2048)
        reference, _ = client.far_view(table, query)
        caught = []

        def reader():
            try:
                yield from client.far_view_proc(table, query)
            except FaultError as exc:
                caught.append(exc)

        proc = sim.process(reader())
        injector = FaultInjector(node)
        sim.schedule(1_000.0, injector.crash, 0)  # mid-stream
        sim.run()
        assert proc.triggered, "crashed request hung"
        assert len(caught) == 1 and isinstance(caught[0], NodeFailedError)
        # Recovery restores service.  (Amnesia — pre-crash handles
        # rejected by incarnation — is enforced at the placement layer;
        # see TestClusterRecovery.  A bare FarviewClient holding its own
        # table handle sees the node serve again.)
        injector.recover(0)
        assert not node.failed
        again, _ = client.far_view(table, query)
        assert sha(again.data) == sha(reference.data)

    def test_link_degrade_slows_and_restore_heals_exactly(self):
        sim, node, client = make_single()
        table, query, _wl = upload(client, "T")
        client.far_view(table, query)  # warm (exclude reconfiguration)
        result, baseline_ns = client.far_view(table, query)
        baseline_sha = sha(result.data)
        injector = FaultInjector(node)
        injector.degrade_link(0, latency_add_ns=2_000.0, rate_factor=0.25,
                              loss=0.1)
        slow, slow_ns = client.far_view(table, query)
        assert slow_ns > baseline_ns
        assert sha(slow.data) == baseline_sha, \
            "loss model corrupted payload bytes"
        injector.restore_link(0)
        healed, healed_ns = client.far_view(table, query)
        assert healed_ns == baseline_ns  # exactly the pre-fault timing
        assert sha(healed.data) == baseline_sha
        assert [kind for _t, kind, _n in injector.applied] == \
            ["link_degrade", "link_restore"]

    def test_region_failure_is_typed_and_ship_fallback_matches_bytes(self):
        sim, node, client = make_single()
        table, query, _wl = upload(client, "T")
        reference, _ = client.far_view(table, query)
        FaultInjector(node).fail_region(0, 0)
        # The raw offload verb refuses typed; the planner's auto path
        # falls back to shipping and must reproduce the exact bytes.
        with pytest.raises(RegionFailedError):
            client.far_view(table, query)
        result, _ = client.far_view_planned(
            table, query, placement="auto",
            stats=PlanStats(selectivity=0.5))
        assert result.data == reference.data
        with pytest.raises(RegionFailedError):
            client.far_view_planned(table, query, placement="offload",
                                    stats=PlanStats(selectivity=0.5))

    def test_region_repair_restores_offload(self):
        sim, node, client = make_single()
        table, query, _wl = upload(client, "T")
        reference, _ = client.far_view(table, query)
        injector = FaultInjector(node)
        injector.fail_region(0, 0)
        injector.repair_region(0, 0)
        result, _ = client.far_view(table, query)
        assert result.data == reference.data

    def test_retry_policy_deadline_discards_late_results(self):
        sim, node, client = make_single()
        table, query, _wl = upload(client, "T", num_rows=2048)
        client.retry_policy = RetryPolicy(max_attempts=2,
                                          base_backoff_ns=500.0,
                                          deadline_ns=1.0)  # unmeetable
        with pytest.raises(RequestTimeoutError):
            client.far_view(table, query)

    @pytest.mark.parametrize("kind", ["plain", "versioned"])
    def test_deadline_on_degraded_link_covers_versioned_reads(self, kind):
        """Regression: far_view on a written table and the planned scan
        bypassed the retry loop, so a scan finishing past ``deadline_ns``
        returned its late result instead of raising.  Deltas at the
        epoch: none (``plain``, never written) or some (``versioned``)."""
        sim, node, client = make_single()
        wl = selection_workload(2048, 0.5, seed=3)
        query = select_star(wl.predicate)
        table = client.create_table("T", wl.schema, wl.rows)
        if kind == "versioned":
            client.update_where(table, wl.predicate, {"c": 7})
        assert table.has_deltas(table.epoch) == (kind == "versioned")
        verbs = [client.far_view,
                 lambda t, q: client.far_view_planned(t, q, "offload")]
        client.far_view(table, query)  # warm (exclude reconfiguration)
        reference, healthy_ns = client.far_view(table, query)
        events = sim.events_processed
        client.far_view(table, query)
        per_scan = sim.events_processed - events
        client.retry_policy = RetryPolicy(max_attempts=2,
                                          base_backoff_ns=500.0,
                                          deadline_ns=healthy_ns * 1.5)
        for verb in verbs:
            events = sim.events_processed
            on_time, _ = verb(table, query)
            assert sha(on_time.data) == sha(reference.data)
            # An installed policy costs nothing until it has to act.
            assert sim.events_processed - events == per_scan
        FaultInjector(node).degrade_link(0, latency_add_ns=healthy_ns,
                                         rate_factor=0.25)
        for verb in verbs:
            with pytest.raises(RequestTimeoutError):
                verb(table, query)
        assert table.shards[0].chain.active_pins == 0  # every discarded attempt unpinned

    def test_deadline_covers_cluster_versioned_scans(self):
        sim = Simulator()
        cluster = FarviewCluster(sim, 2, TEST_CONFIG)
        cc = ClusterClient(cluster)
        cc.open_connection()
        wl = selection_workload(1024, 0.5, seed=3)
        vst = cc.create_versioned_table("T", wl.schema, wl.rows)
        query = select_star(wl.predicate)
        cc.far_view(vst, query)  # warm
        _result, healthy_ns = cc.far_view(vst, query)
        cc.retry_policy = RetryPolicy(max_attempts=2, base_backoff_ns=500.0,
                                      deadline_ns=healthy_ns * 1.5)
        cc.far_view(vst, query)
        FaultInjector(cluster).degrade_link(1, latency_add_ns=healthy_ns,
                                            rate_factor=0.25)
        for verb in (cc.far_view, cc.scan_versioned):
            with pytest.raises(RequestTimeoutError):
                verb(vst, query)
        with pytest.raises(RequestTimeoutError):
            cc.read_version(vst)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_backoff_ns=1_000.0,
                             max_backoff_ns=3_000.0)
        assert [policy.backoff_ns(a) for a in (1, 2, 3, 4)] == \
            [1_000.0, 2_000.0, 3_000.0, 3_000.0]
        with pytest.raises(QueryError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(QueryError):
            RetryPolicy(deadline_ns=0.0)

    def test_retry_policy_survives_transient_crash(self):
        """Crash + recover inside the backoff window: the first attempt
        fails typed, the retry lands on the healed node and returns the
        exact bytes — the caller never sees the outage."""
        sim, node, client = make_single()
        table, query, _wl = upload(client, "T", num_rows=2048)
        reference, _ = client.far_view(table, query)  # warm
        client.retry_policy = RetryPolicy(max_attempts=3,
                                          base_backoff_ns=5_000.0)
        injector = FaultInjector(node)
        sim.schedule(sim.now + 500.0, injector.crash, 0)
        sim.schedule(sim.now + 2_000.0, injector.recover, 0)
        captured = {}

        def reader():
            captured["result"] = yield from client.far_view_proc(table,
                                                                 query)

        proc = sim.process(reader())
        sim.run()
        assert proc.triggered
        assert sha(captured["result"].data) == sha(reference.data)
        assert [kind for _t, kind, _n in injector.applied] == \
            ["node_crash", "node_recover"]


# ---------------------------------------------------------------------------
# Cluster recovery: failover, degraded mode, re-replication, 2PC abort
# ---------------------------------------------------------------------------

class TestClusterRecovery:
    def test_replicated_failover_is_sha_identical(self):
        sim, cluster, cc, sharded, query, _wl = make_cluster(4, 2)
        reference, _ = cc.far_view(sharded, query)
        ref_read = cc.table_read(sharded)[0]
        FaultInjector(cluster).crash(1)
        result, _ = cc.far_view(sharded, query)
        assert sha(result.data) == sha(reference.data)
        assert sha(cc.table_read(sharded)[0]) == sha(ref_read)

    def test_unreplicated_crash_is_typed_never_wrong(self):
        sim, cluster, cc, sharded, query, _wl = make_cluster(4, 1)
        FaultInjector(cluster).crash(1)
        with pytest.raises(NodeFailedError):
            cc.far_view(sharded, query)
        with pytest.raises(NodeFailedError):
            cc.table_read(sharded)

    def test_unreplicated_shard_is_served_after_recovery(self):
        """The stamp rule: a default (k=1) table's shards are unstamped,
        so once its node recovers the shard is served again, byte-exact
        — as a written table's are; a replicated table's primary copy is
        stamped and stays lost (the next test)."""
        sim, cluster, cc, sharded, query, _wl = make_cluster(2, 1)
        assert all(s.incarnation is None for s in sharded.shards)
        reference, _ = cc.far_view(sharded, query)
        ref_read = cc.table_read(sharded)[0]
        injector = FaultInjector(cluster)
        injector.crash(1)
        with pytest.raises(NodeFailedError):
            cc.far_view(sharded, query)
        injector.recover(1)
        result, _ = cc.far_view(sharded, query)
        assert sha(result.data) == sha(reference.data)
        assert sha(cc.table_read(sharded)[0]) == sha(ref_read)

    def test_failover_back_pressure_after_recovery(self):
        """A recovered primary lost its shard (incarnation mismatch):
        queries keep failing over to the replica, still byte-exact."""
        sim, cluster, cc, sharded, query, _wl = make_cluster(4, 2)
        reference, _ = cc.far_view(sharded, query)
        injector = FaultInjector(cluster)
        injector.crash(2)
        injector.recover(2)
        result, _ = cc.far_view(sharded, query)
        assert sha(result.data) == sha(reference.data)

    def test_double_crash_exhausts_replicas_typed(self):
        sim, cluster, cc, sharded, query, _wl = make_cluster(4, 2)
        injector = FaultInjector(cluster)
        injector.crash(1)          # shard 1 primary
        injector.crash(2)          # shard 1's ring replica
        with pytest.raises(NodeFailedError):
            cc.far_view(sharded, query)

    def test_degraded_mode_returns_partial_with_failed_shards(self):
        sim, cluster, cc, sharded, query, wl = make_cluster(2, 1)
        cc.allow_degraded = True
        FaultInjector(cluster).crash(1)
        with pytest.raises(DegradedResultError) as excinfo:
            cc.far_view(sharded, query)
        err = excinfo.value
        assert err.failed_shards == (1,)
        assert err.partial is not None
        # The partial is exactly the surviving shard's contribution: a
        # strict prefix of the no-fault rows under chunk partitioning.
        surviving_rows = err.partial.num_rows
        expected_total = int(eval_mask(wl.predicate, wl.rows).sum())
        assert 0 < surviving_rows < expected_total

    def test_broadcast_replicas_reinstalled_after_crash_recover(self):
        """Satellite (b): a dead node's broadcast build replicas are
        pruned (incarnation mismatch) and re-broadcast on recovery —
        never served stale."""
        import numpy as np

        from repro.common.records import Column, Schema
        from repro.core.query import JoinSpec, Query

        sim = Simulator()
        cluster = FarviewCluster(sim, 2, TEST_CONFIG)
        cc = ClusterClient(cluster)
        cc.open_connection()
        wl = selection_workload(256, 0.5, seed=5)
        fact = cc.create_table("fact", wl.schema, wl.rows,
                               PartitionSpec(replicas=2))
        dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
        dim_rows = dim_schema.empty(64)
        dim_rows["id"] = np.arange(64)
        dim_rows["rate"] = np.arange(64) * 0.5
        dim = cc.create_table("dim", dim_schema, dim_rows,
                              PartitionSpec(replicas=2))
        query = Query(join=JoinSpec(dim, "id", "a", ("rate",)), label="join")
        reference, _ = cc.far_view(fact, query)  # broadcasts + caches
        copies = cc._placements[("dim", None)].copies
        assert set(copies) == {(0, 0), (0, 1)}
        stale_incarnation = copies[(0, 1)].incarnation

        injector = FaultInjector(cluster)
        injector.crash(1)
        # While node 1 is down the probe fails over to node 0's fact
        # replica and joins against node 0's build copy.
        down, _ = cc.far_view(fact, query)
        assert sha(down.data) == sha(reference.data)
        injector.recover(1)
        # The next join must re-broadcast to the recovered node under
        # its new incarnation — the stale entry may never be served.
        back, _ = cc.far_view(fact, query)
        assert sha(back.data) == sha(reference.data)
        fresh = cc._placements[("dim", None)].copies[(0, 1)]
        assert fresh.incarnation == cluster.node(1).incarnation
        assert fresh.incarnation > stale_incarnation

    def test_crash_mid_shuffle_is_typed_never_hangs(self):
        """A node crash while the repartition shuffle is writing its
        fragments surfaces a typed :class:`FaultError` — no hang, no
        wrong bytes (k=1: the dead node's fact shard has no copy)."""
        import numpy as np

        from repro.common.records import Column, Schema
        from repro.core.query import JoinSpec, Query

        sim = Simulator()
        cluster = FarviewCluster(sim, 4, TEST_CONFIG)
        cc = ClusterClient(cluster)
        cc.open_connection()
        wl = selection_workload(512, 0.5, seed=11)
        fact = cc.create_table("fact", wl.schema, wl.rows,
                               PartitionSpec("hash", key="a", replicas=1))
        dim_schema = Schema([Column("id", "int64"),
                             Column("rate", "float64")])
        dim_rows = dim_schema.empty(256)
        dim_rows["id"] = np.arange(256)
        dim_rows["rate"] = np.arange(256) * 0.5
        dim = cc.create_table("dim", dim_schema, dim_rows,
                              PartitionSpec(replicas=1))
        query = Query(join=JoinSpec(dim, "id", "a", ("rate",)),
                      label="join")
        outcomes = []

        def worker():
            try:
                yield from cc.far_view_proc(fact, query,
                                            join_strategy="shuffle")
            except FaultError as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append("ok")

        proc = sim.process(worker())
        injector = FaultInjector(cluster)
        sim.schedule(50_000.0, injector.crash, 2)  # mid-shuffle
        sim.run()
        assert proc.triggered, "crashed shuffle join hung"
        assert outcomes and outcomes[0] is not None
        assert outcomes[0] != "ok", \
            "k=1 join succeeded with a node (and its fact shard) dead"
        assert issubclass(outcomes[0], FaultError), \
            f"crash surfaced untyped: {outcomes[0]}"
        # No half-shuffle is left behind: the in-flight job handle is
        # cleared so the next attempt (after recovery) starts clean.
        assert not cc._moves

    def test_shuffle_failover_with_replicas_is_sha_identical(self):
        """k=2 fragment ring: a node crash after (or during) the shuffle
        fails the probe over to the ring copy of both the fact shard and
        its build fragment — merged bytes identical to no-fault."""
        import numpy as np

        from repro.common.records import Column, Schema
        from repro.core.query import JoinSpec, Query

        def build_bench():
            sim = Simulator()
            cluster = FarviewCluster(sim, 4, TEST_CONFIG)
            cc = ClusterClient(cluster)
            cc.open_connection()
            wl = selection_workload(512, 0.5, seed=12)
            fact = cc.create_table(
                "fact", wl.schema, wl.rows,
                PartitionSpec("hash", key="a", replicas=2))
            dim_schema = Schema([Column("id", "int64"),
                                 Column("rate", "float64")])
            dim_rows = dim_schema.empty(256)
            dim_rows["id"] = np.arange(256)
            dim_rows["rate"] = np.arange(256) * 0.5
            dim = cc.create_table("dim", dim_schema, dim_rows,
                                  PartitionSpec(replicas=2))
            query = Query(join=JoinSpec(dim, "id", "a", ("rate",)),
                          label="join")
            return sim, cluster, cc, fact, query

        _sim, _cluster, cc0, fact0, query0 = build_bench()
        reference, _ = cc0.far_view(fact0, query0,
                                    join_strategy="shuffle")
        ref_sha = sha(reference.data)

        # Crash after the shuffle is cached: stale fragments on the dead
        # node are pruned (incarnation mismatch) and the probe fails
        # over to the ring copies.
        sim, cluster, cc, fact, query = build_bench()
        cc.far_view(fact, query, join_strategy="shuffle")  # warm + cache
        FaultInjector(cluster).crash(1)
        after, _ = cc.far_view(fact, query, join_strategy="shuffle")
        assert sha(after.data) == ref_sha, \
            "post-crash shuffle failover changed the merged bytes"

        # Crash mid-shuffle: the ensure loop retries onto the survivors
        # and the k=2 ring still covers every fact shard.
        sim, cluster, cc, fact, query = build_bench()
        captured = {}

        def worker():
            result = yield from cc.far_view_proc(fact, query,
                                                 join_strategy="shuffle")
            captured["result"] = result

        proc = sim.process(worker())
        injector = FaultInjector(cluster)
        sim.schedule(50_000.0, injector.crash, 3)
        sim.run()
        assert proc.triggered, "mid-shuffle crash hung the join"
        assert sha(captured["result"].data) == ref_sha, \
            "mid-shuffle crash changed the merged bytes"

    def test_two_phase_abort_keeps_epochs_aligned(self):
        """A node crash between prepare and commit aborts the batch:
        every surviving shard stays at the old epoch (no split brain)."""
        from repro.operators.selection import Compare
        from repro.workloads.generator import make_rows
        from repro.common.records import default_schema

        sim = Simulator()
        cluster = FarviewCluster(sim, 4, TEST_CONFIG)
        cc = ClusterClient(cluster)
        cc.open_connection()
        schema = default_schema()
        rows = make_rows(schema, 64, seed=9)
        vst = cc.create_versioned_table("v", schema, rows)
        epoch_before = vst.epoch
        FaultInjector(cluster).crash(2)
        with pytest.raises(FaultError):
            cc.update_where(vst, Compare("a", "<", 10**9), {"c": 1})
        assert vst.epoch == epoch_before
        live_epochs = {s.chain.epoch for i, s in enumerate(vst.shards)
                       if i != 2}
        assert live_epochs == {epoch_before}, \
            "abort left surviving shards at mixed epochs"

    def test_cluster_planner_ships_around_failed_regions(self):
        """Graceful degradation: placement='auto' reroutes a region
        failure to the ship path, byte-identically."""
        sim, cluster, cc, sharded, query, _wl = make_cluster(2, 1)
        reference, _ = cc.far_view(sharded, query)
        injector = FaultInjector(cluster)
        for region in range(len(cluster.node(0).regions.regions)):
            injector.fail_region(0, region)
        result, _ = cc.far_view_planned(sharded, query, placement="auto",
                                        stats=PlanStats(selectivity=0.5))
        assert sha(result.data) == sha(reference.data)
        with pytest.raises(RegionFailedError):
            cc.far_view_planned(sharded, query, placement="offload",
                                stats=PlanStats(selectivity=0.5))

    def test_random_chaos_runs_stay_exact(self):
        """Random plan sweep (seeded by the CI chaos matrix): every
        successful query byte-identical to no-fault, every failure
        typed, no hangs."""
        _sim0, _c0, cc0, sharded0, query0, _wl = make_cluster(4, 2, seed=21)
        reference, _ = cc0.far_view(sharded0, query0)
        ref_sha = sha(reference.data)
        for round_seed in range(3):
            sim, cluster, cc, sharded, query, _wl = make_cluster(
                4, 2, seed=21)
            cc.retry_policy = RetryPolicy(max_attempts=2,
                                          base_backoff_ns=1_000.0)
            plan = FaultPlan.random(
                100 * CHAOS_SEED + round_seed, 4,
                horizon_ns=sim.now + 40_000.0,
                crashes=2, degrades=1, region_fails=1)
            FaultInjector(cluster, plan).install()
            outcomes = []

            def worker():
                for _round in range(4):
                    try:
                        result = yield from cc.far_view_proc(sharded, query)
                    except FaultError as exc:
                        outcomes.append(("err", type(exc).__name__))
                    else:
                        outcomes.append(("ok", sha(result.data)))

            proc = sim.process(worker())
            sim.run()
            assert proc.triggered, "chaos run hung"
            for tag, detail in outcomes:
                if tag == "ok":
                    assert detail == ref_sha, "chaos produced wrong bytes"

    def test_sql_under_a_fault_schedule_stays_exact(self):
        """The mini TPC-H statements as processes, under offload, ship
        and auto, while a random crash and link degradation strike a k=2
        pool: every result is the serial model's, every failure a typed
        FaultError, and the worker finishes."""
        from repro.baselines.sql_model import model_sha256
        from repro.core.api import canonical_result_bytes
        from repro.experiments.fig18_minitpch import QUERIES, make_tables

        tables = make_tables(600, 120, 40)
        sim = Simulator()
        cluster = FarviewCluster(sim, 4, TEST_CONFIG)
        cc = ClusterClient(cluster)
        cc.open_connection()
        for name, (schema, rows) in tables.items():
            cc.create_table(name, schema, rows, PartitionSpec(replicas=2))
        cc.retry_policy = RetryPolicy(max_attempts=2, base_backoff_ns=1_000.0)
        # The 12 statements take ~20 ms of simulated time (each cold
        # offload pays a reconfiguration); outages span several of them.
        plan = FaultPlan.random(29 + CHAOS_SEED, 4,
                                horizon_ns=sim.now + 20_000_000.0,
                                crashes=1, degrades=1,
                                mean_outage_ns=2_000_000.0)
        FaultInjector(cluster, plan).install()
        outcomes = []

        def worker():
            for _label, statement in QUERIES:
                for placement in ("offload", "ship", "auto"):
                    try:
                        result = yield from cc.sql_proc(statement,
                                                        placement=placement)
                    except FaultError:
                        outcomes.append((statement, None))      # typed
                    else:
                        outcomes.append(
                            (statement, sha(canonical_result_bytes(result))))

        proc = sim.process(worker())
        sim.run()
        assert proc.triggered, "SQL under chaos hung"
        if not proc.ok:
            raise proc.value                     # an untyped failure
        assert len(outcomes) == 3 * len(QUERIES)
        expected = {statement: model_sha256(statement, tables)
                    for _label, statement in QUERIES}
        for statement, digest in outcomes:
            assert digest in (None, expected[statement]), \
                f"chaos produced wrong bytes for {statement!r}"


# ---------------------------------------------------------------------------
# Materialized views under faults: typed refusal, no partial push,
# re-bootstrap convergence
# ---------------------------------------------------------------------------

VIEW_SQL = "SELECT c, COUNT(*) AS n FROM v GROUP BY c"


class TestViewFaults:
    """A view refresh is transactional against faults: it either folds
    the whole pending batch into every view and subscriber, or a typed
    :class:`FaultError` leaves view state, subscribers, and the pending
    segments untouched — never a hang, never a partial push."""

    @staticmethod
    def _view_bench():
        import numpy as np

        from repro.common.records import default_schema
        from repro.workloads.generator import make_rows

        sim = Simulator()
        cluster = FarviewCluster(sim, 4, TEST_CONFIG)
        cc = ClusterClient(cluster)
        cc.open_connection()
        schema = default_schema()
        rows = make_rows(schema, 512, seed=13 + CHAOS_SEED)
        rows["a"] = np.arange(512)
        vst = cc.create_versioned_table("v", schema, rows)
        view, _ = cc.create_view(VIEW_SQL, name="faultview")
        sub = cc.subscribe(view, auto=False)   # refresh on demand
        return sim, cluster, cc, schema, vst, view, sub

    def test_crash_mid_refresh_typed_no_partial_push(self):
        from repro.operators.selection import Compare

        sim, cluster, cc, _schema, vst, view, sub = self._view_bench()
        cc.update_where(vst, Compare("a", "<", 512), {"c": 7})
        cc.update_where(vst, Compare("a", "<", 256), {"d": 9})
        before_sha = view.sha256()
        before_steps = view.refresh_count
        before_pushed = sub.rows_pushed
        outcomes = []

        def refresher():
            try:
                yield from cc.refresh_views_proc()
            except FaultError as exc:
                outcomes.append(exc)
            else:
                outcomes.append(None)

        proc = sim.process(refresher())
        injector = FaultInjector(cluster)
        sim.schedule(1_000.0, injector.crash, 2)  # mid-read
        sim.run()
        assert proc.triggered, "crashed refresh hung"
        assert len(outcomes) == 1 and isinstance(outcomes[0], FaultError), \
            "mid-refresh crash did not surface a typed FaultError"
        assert view.sha256() == before_sha, \
            "failed refresh left partial view state"
        assert view.refresh_count == before_steps
        assert sub.rows_pushed == before_pushed, \
            "failed refresh pushed a partial update"
        # The whole batch stayed pending: recovery + one refresh folds
        # every committed delta row exactly once.
        injector.recover(2)
        stats, _ = cc.refresh_views()
        assert stats.delta_rows == 512 + 256, \
            "recovered refresh dropped or double-counted delta rows"
        rescan, _ = cc.create_view(VIEW_SQL, name="rescan")
        assert view.sha256() == rescan.sha256() == sub.sha256(), \
            "recovered refresh diverged from a fresh rescan"

    def test_bootstrap_crash_leaves_no_half_registered_view(self):
        """A typed failure while a new view bootstraps unwinds
        completely: no catalog entry, no leaked listener, no pin."""
        from repro.workloads.generator import make_rows

        sim, cluster, cc, schema, _vst, _view, _sub = self._view_bench()
        vst2 = cc.create_versioned_table(
            "w", schema, make_rows(schema, 128, seed=14 + CHAOS_SEED))
        assert all(s.chain.num_listeners == 0 for s in vst2.shards)
        FaultInjector(cluster).crash(1)
        with pytest.raises(FaultError):
            cc.create_view("SELECT c, COUNT(*) AS n FROM w GROUP BY c",
                           name="doomed")
        assert "doomed" not in cc.views.views
        assert "w" not in cc.views.trackers, "abandoned tracker leaked"
        assert all(s.chain.num_listeners == 0 for s in vst2.shards), \
            "abandoned bootstrap leaked a chain listener"
        assert all(s.chain.active_pins == 0 for s in vst2.shards), \
            "abandoned bootstrap leaked an epoch pin"

    def test_rebootstrap_after_fault_converges_to_rescan(self):
        from repro.operators.selection import Compare

        sim, cluster, cc, _schema, vst, view, sub = self._view_bench()
        cc.update_where(vst, Compare("a", "<", 300), {"c": 3})
        injector = FaultInjector(cluster)
        injector.crash(0)
        with pytest.raises(FaultError):
            cc.refresh_views()
        injector.recover(0)
        fresh, _ = cc.rebootstrap_view(view)
        assert sub.view is fresh, "subscription did not rebind"
        rescan, _ = cc.create_view(VIEW_SQL, name="rescan")
        assert fresh.sha256() == rescan.sha256() == sub.sha256(), \
            "re-bootstrapped subscriber diverged from the rescan"
