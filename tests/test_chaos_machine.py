"""Stateful chaos testing: random faults interleaved with queries.

A Hypothesis rule machine drives a replicated 4-node cluster through
random crash / recover / link-degrade transitions interleaved with raw
reads, scatter-gather scans, broadcast joins, and versioned writes and
snapshot scans.  The oracle mirrors ``tests/test_core_versioning.py``'s
machines: a serial numpy model plus a per-epoch byte history, and every
*successful* operation must return bytes sha256-identical to the
quiesced no-fault replay — under chaos, a query may fail with a typed
:class:`FaultError`, but it may never return different bytes or hang.

Availability itself is part of the oracle for the replicated plain
table: with ring replicas (``k=2``, replica of shard *s* on node
``s+1``) a scan must *succeed* whenever each shard still has a usable
copy — node up and never crashed since the copy was written (fail-stop
with amnesia: a crash invalidates the incarnation its shards and
replicas were stamped with) — and must fail typed whenever some shard
has none.
"""

import hashlib
import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines.sql_model import execute_model
from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.errors import FaultError
from repro.common.records import Column, Schema, default_schema
from repro.core.api import ClusterClient
from repro.core.cluster import FarviewCluster
from repro.core.elasticity import RegionLeaseManager
from repro.core.faults import FaultInjector
from repro.core.partition import PartitionSpec
from repro.core.query import JoinSpec, Query, select_star
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import make_rows, selection_workload

KB = 1024
MB = 1024 * KB

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
NUM_NODES = 4

TEST_CONFIG = FarviewConfig(memory=MemoryConfig(
    channels=2, channel_capacity=8 * MB, page_size=64 * KB))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


VIEW_SQL = "SELECT c, COUNT(*) AS n FROM v GROUP BY c"


def view_model_sha(schema, image: bytes) -> str:
    """Serial model over the epoch's byte image, canonicalized the way
    :meth:`ZSet.sha256` hashes (sorted row byte-images)."""
    rows = schema.from_bytes(image, copy=True)
    out_schema, out_rows = execute_model(VIEW_SQL, {"v": (schema, rows)})
    data = out_schema.to_bytes(out_rows)
    width = out_schema.row_width
    images = sorted(data[i:i + width] for i in range(0, len(data), width))
    return sha(b"".join(images))


class ChaosMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.cluster = FarviewCluster(self.sim, NUM_NODES, TEST_CONFIG)
        self.cc = ClusterClient(self.cluster)
        self.cc.open_connection()
        self.injector = FaultInjector(self.cluster)
        #: Nodes currently down / with a degraded link.
        self.down: set[int] = set()
        self.degraded: set[int] = set()
        #: Nodes that have crashed at least once: their incarnation no
        #: longer matches anything written at table-creation time.
        self.crashed_ever: set[int] = set()

        # Replicated plain table (scans, raw reads) + dimension (joins).
        wl = selection_workload(512, 0.5, seed=31 + CHAOS_SEED)
        self.fact = self.cc.create_table("fact", wl.schema, wl.rows,
                                         PartitionSpec(replicas=2))
        self.fact_query = select_star(wl.predicate)
        dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
        dim_rows = dim_schema.empty(64)
        dim_rows["id"] = np.arange(64)
        dim_rows["rate"] = np.arange(64) * 0.5
        self.dim = self.cc.create_table("dim", dim_schema, dim_rows,
                                        PartitionSpec(replicas=2))
        self.join_query = Query(join=JoinSpec(self.dim, "id", "a", ("rate",)),
                                label="chaos-join")
        # Hash-partitioned twin of the fact table (k=2) for the
        # partitioned join strategies: co-located against a build
        # hash-partitioned on the join key, repartition shuffle against
        # the chunk-partitioned dimension.
        self.hfact = self.cc.create_table(
            "hfact", wl.schema, wl.rows,
            PartitionSpec("hash", key="a", replicas=2))
        self.hdim = self.cc.create_table(
            "hdim", dim_schema, dim_rows,
            PartitionSpec("hash", key="id", replicas=2))
        self.colo_query = Query(join=JoinSpec(self.hdim, "id", "a",
                                              ("rate",)),
                                label="chaos-colo")
        # Versioned table (k=1 chunk shards) for writes + pinned scans.
        self.schema = default_schema()
        rows = make_rows(self.schema, 48, seed=32 + CHAOS_SEED)
        rows["a"] = np.arange(48)
        self.vst = self.cc.create_versioned_table("v", self.schema, rows)
        self.model = rows.copy()
        self.history = {0: self.schema.to_bytes(rows)}
        self.scan_query = Query(projection=tuple(self.schema.names),
                                label="chaos-scan")
        # Materialized view over the versioned table, refreshed
        # *explicitly* (auto=False) so the view rule — not every
        # versioned_update — decides when deltas propagate.
        self.view, _ = self.cc.create_view(VIEW_SQL, name="chaos_view")
        self.view_sub = self.cc.subscribe(self.view, auto=False)

        # Lease admission over node 0 only: a deliberately narrow pool
        # (the ClusterClient's standing connection already holds one of
        # its regions) so a small storm genuinely queues.
        self.lease_mgr = RegionLeaseManager([self.cluster.node(0)])

        # No-fault references (also warms pipelines + broadcast cache).
        self.fact_sha = sha(self.cc.far_view(self.fact,
                                             self.fact_query)[0].data)
        self.join_sha = sha(self.cc.far_view(self.fact,
                                             self.join_query)[0].data)
        self.image_sha = sha(self.cc.table_read(self.fact)[0])
        colo_ref = self.cc.far_view(self.hfact, self.colo_query)[0]
        assert colo_ref.join_strategy == "colocated"
        self.colo_sha = sha(colo_ref.data)
        shuffle_ref = self.cc.far_view(self.hfact, self.join_query,
                                       join_strategy="shuffle")[0]
        self.shuffle_sha = sha(shuffle_ref.data)

    # -- availability oracle ----------------------------------------------
    def _copy_usable(self, node: int) -> bool:
        return node not in self.down and node not in self.crashed_ever

    def _fact_available(self) -> bool:
        """Every shard has a usable copy (primary or its ring replica)."""
        return all(self._copy_usable(s) or self._copy_usable((s + 1)
                                                            % NUM_NODES)
                   for s in range(NUM_NODES))

    # -- fault transitions -------------------------------------------------
    @rule(node=st.integers(min_value=0, max_value=NUM_NODES - 1))
    def crash(self, node):
        if node in self.down:
            return
        self.injector.crash(node)
        self.down.add(node)
        self.crashed_ever.add(node)

    @rule(node=st.integers(min_value=0, max_value=NUM_NODES - 1))
    def recover(self, node):
        if node not in self.down:
            return
        self.injector.recover(node)
        self.down.remove(node)

    @rule(node=st.integers(min_value=0, max_value=NUM_NODES - 1))
    def degrade_link(self, node):
        if node in self.degraded:
            return
        self.injector.degrade_link(node, latency_add_ns=1_000.0,
                                   rate_factor=0.5, loss=0.05)
        self.degraded.add(node)

    @rule(node=st.integers(min_value=0, max_value=NUM_NODES - 1))
    def restore_link(self, node):
        if node not in self.degraded:
            return
        self.injector.restore_link(node)
        self.degraded.remove(node)

    # -- queries under chaos ----------------------------------------------
    @rule()
    def scan_fact(self):
        try:
            result, _ = self.cc.far_view(self.fact, self.fact_query)
        except FaultError:
            assert not self._fact_available(), \
                "scan failed although every shard had a usable copy"
        else:
            assert sha(result.data) == self.fact_sha, \
                "chaos scan returned wrong bytes"

    @rule()
    def read_fact_image(self):
        try:
            data, _ = self.cc.table_read(self.fact)
        except FaultError:
            assert not self._fact_available()
        else:
            assert sha(data) == self.image_sha, \
                "chaos raw read returned wrong bytes"

    @rule()
    def join_fact_dim(self):
        """The broadcast join additionally needs build replicas (pruned
        on crash, re-broadcast on recovery), so its availability is not
        the plain-scan oracle; bytes still must be exact, and with no
        fault history it must succeed."""
        try:
            result, _ = self.cc.far_view(self.fact, self.join_query)
        except FaultError:
            assert self.down or self.crashed_ever, \
                "join failed with no fault in the system"
        else:
            assert sha(result.data) == self.join_sha, \
                "chaos join returned wrong bytes"

    @rule()
    def colocated_join(self):
        """Both sides hash-partitioned on the join key: the planner runs
        shard-local with k=2 ring failover; success must be byte-exact
        and a failure typed."""
        try:
            result, _ = self.cc.far_view(self.hfact, self.colo_query)
        except FaultError:
            assert self.down or self.crashed_ever, \
                "co-located join failed with no fault in the system"
        else:
            assert result.join_strategy == "colocated"
            assert sha(result.data) == self.colo_sha, \
                "chaos co-located join returned wrong bytes"

    @rule()
    def shuffle_join(self):
        """The repartition shuffle under chaos: fragments lost to a
        crash are re-shuffled onto the survivors; success must be
        byte-exact (k=2 fragment ring) and a failure typed."""
        try:
            result, _ = self.cc.far_view(self.hfact, self.join_query,
                                         join_strategy="shuffle")
        except FaultError:
            assert self.down or self.crashed_ever, \
                "shuffle join failed with no fault in the system"
        else:
            assert result.join_strategy == "shuffle"
            assert sha(result.data) == self.shuffle_sha, \
                "chaos shuffle join returned wrong bytes"

    @rule(cut=st.integers(min_value=0, max_value=60),
          value=st.integers(min_value=-99, max_value=99))
    def versioned_update(self, cut, value):
        """Two-phase write: commits cluster-wide iff every node is up;
        a down node aborts the batch with epochs intact (the versioned
        shards are unreplicated, but their bytes survive recovery)."""
        epoch_before = self.vst.epoch
        try:
            epoch, _ = self.cc.update_where(self.vst,
                                            Compare("a", "<", cut),
                                            {"c": value})
        except FaultError:
            assert self.down, "write aborted with all nodes up"
            assert self.vst.epoch == epoch_before
        else:
            assert not self.down, "write committed despite a down node"
            assert epoch == epoch_before + 1
            self.model = self.model.copy()
            self.model["c"][self.model["a"] < cut] = value
            self.history[epoch] = self.schema.to_bytes(self.model)

    @rule(data=st.data())
    def versioned_scan_pinned_epoch(self, data):
        """Every successful snapshot scan must be sha256-identical to
        the quiesced serial replay at its pinned epoch."""
        epoch = data.draw(st.integers(0, self.vst.epoch))
        try:
            result, _ = self.cc.scan_versioned(self.vst, self.scan_query,
                                               as_of=epoch)
        except FaultError:
            assert self.down, "snapshot scan failed with all nodes up"
        else:
            assert sha(result.data) == sha(self.history[epoch]), \
                f"chaos snapshot at epoch {epoch} diverged from replay"

    @rule()
    def view_refresh(self):
        """Explicit view refresh under chaos: either the whole pending
        batch folds — the view, its subscriber, and the serial model at
        the processed epoch byte-identical — or a typed
        :class:`FaultError` leaves the view state, the subscriber, and
        the tracker pins untouched (no partial push)."""
        before_sha = self.view.sha256()
        before_steps = self.view.refresh_count
        before_pushed = self.view_sub.rows_pushed
        try:
            self.cc.refresh_views()
        except FaultError:
            assert self.down, "view refresh failed with all nodes up"
            assert self.view.sha256() == before_sha, \
                "failed refresh left partial view state"
            assert self.view.refresh_count == before_steps
            assert self.view_sub.rows_pushed == before_pushed, \
                "failed refresh pushed a partial update"
        else:
            expected = view_model_sha(self.schema,
                                      self.history[self.vst.epoch])
            assert self.view.sha256() == expected, \
                "chaos view refresh diverged from the serial model"
            assert self.view_sub.sha256() == expected, \
                "chaos subscriber diverged from the view"
            assert self.view_sub.digest() == self.view.digest()

    @rule(extra=st.integers(min_value=1, max_value=3), mid_crash=st.booleans())
    def lease_admission(self, extra, mid_crash):
        """Acquire/release/crash/recover interleavings vs the serial
        queue oracle: under FIFO, grant order *is* arrival order — even
        when the pool's only node crashes mid-storm and the parked
        waiters must survive until its recovery wakes them — and the
        books balance exactly once the storm drains."""
        mgr = self.lease_mgr
        if 0 in self.down:
            # The storm must eventually drain; bring the pool node up
            # (legitimate machine transition, mirrored in the fault sets).
            self.injector.recover(0)
            self.down.discard(0)
        tenants = self.cluster.node(0).free_regions + extra  # forces queueing
        depth_before = mgr.max_queue_depth
        grant_order: list[int] = []

        def tenant(tag):
            client = yield from mgr.acquire(tenant=tag)
            grant_order.append(tag)
            yield self.sim.timeout(20.0)
            mgr.release(client)

        def main():
            procs = [self.sim.process(tenant(i)) for i in range(tenants)]
            if mid_crash:
                # Crash while leases are held and waiters are parked;
                # recover after every holder has released into a dead
                # pool — only the recovery hook can wake the queue.
                yield self.sim.timeout(5.0)
                self.injector.crash(0)
                yield self.sim.timeout(30.0)
                self.injector.recover(0)
            yield self.sim.all_of(procs)

        self.sim.run_process(main())
        if mid_crash:
            self.crashed_ever.add(0)
        assert grant_order == list(range(tenants)), \
            "lease grants diverged from the serial FIFO oracle"
        assert mgr.queued == 0 and mgr.live_leases == 0
        assert mgr.max_queue_depth >= max(depth_before, extra), \
            "max_queue_depth must be monotone and count the parked storm"

    # -- invariants ---------------------------------------------------------
    @invariant()
    def epochs_never_split(self):
        assert all(s.chain.epoch == self.vst.epoch
                   for s in self.vst.shards), \
            "cluster epochs split under chaos"

    @invariant()
    def lease_books_balance(self):
        """PR-10 accounting invariant: between rules the lease pool is
        quiesced, so live leases and the per-node balance agree exactly
        (crash-while-leased releases and raising bodies included)."""
        assert self.lease_mgr.live_leases == \
            sum(self.lease_mgr.leases_per_node)
        assert self.lease_mgr.queued == 0
        assert self.lease_mgr.max_queue_depth >= 0

    @invariant()
    def fault_state_is_consistent(self):
        for i, node in enumerate(self.cluster.nodes):
            assert node.failed == (i in self.down)
            assert node.link.degraded == (i in self.degraded)


ChaosMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None)
TestChaosMachine = ChaosMachine.TestCase
