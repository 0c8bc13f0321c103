"""Versioned write path: MVCC snapshot isolation, delta segments,
compaction, and the cluster-wide two-phase epoch broadcast.

The central property, asserted many ways below: a reader that opened
epoch E returns bytes sha256-identical to a quiesced scan at E — with
concurrent writers, with compaction running mid-scan, single-node and on
a 4-node cluster.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.errors import QueryError
from repro.common.records import Column, Schema, default_schema
from repro.core.api import ClusterClient, FarviewClient, canonical_result_bytes
from repro.core.cluster import FarviewCluster
from repro.core.cost_model import PlanStats
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.query import JoinSpec, Query, group_by_sum, select_distinct
from repro.core.table import FTable
from repro.core.versioning import (ROWID_COLUMN, DeltaSegment, VersionView,
                                   delete_schema, delta_schema,
                                   rows_from_literals)
from repro.experiments import fig20_views
from repro.operators.selection import And, Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import make_rows

KB = 1024
MB = 1024 * KB

#: Small pages so many-segment chains never exhaust the striped allocator.
TEST_CONFIG = FarviewConfig(memory=MemoryConfig(
    channels=2, channel_capacity=8 * MB, page_size=64 * KB))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_client(sim=None, config=TEST_CONFIG):
    sim = sim if sim is not None else Simulator()
    client = FarviewClient(FarviewNode(sim, config))
    client.open_connection()
    return client


def seeded_rows(schema, n, seed, start_a=0):
    rows = make_rows(schema, n, seed=seed)
    rows["a"] = np.arange(start_a, start_a + n)
    return rows


def full_scan_query(schema):
    return Query(projection=tuple(schema.names), label="read")


#: Dimension side of the machines' join actions.
JOIN_DIM_SCHEMA = Schema([Column("id", "int64"), Column("rate", "float64")])


def make_join_dim(num_keys=64):
    rows = JOIN_DIM_SCHEMA.empty(num_keys)
    rows["id"] = np.arange(num_keys)
    rows["rate"] = np.arange(num_keys) * 0.5
    return rows


def join_expected_bytes(fact_rows, fact_schema, dim_rows):
    """Serial re-execution model of ``fact JOIN dim ON a = id``."""
    out_schema = Schema(list(fact_schema.columns)
                        + [Column("rate", "float64")])
    build = {int(k): i for i, k in enumerate(dim_rows["id"])}
    picks, rates = [], []
    for i in range(len(fact_rows)):
        j = build.get(int(fact_rows["a"][i]))
        if j is not None:
            picks.append(i)
            rates.append(float(dim_rows["rate"][j]))
    out = out_schema.empty(len(picks))
    for name in fact_schema.names:
        out[name] = fact_rows[name][picks]
    out["rate"] = rates
    return out_schema.to_bytes(out)


# ---------------------------------------------------------------------------
# Basic write-path semantics
# ---------------------------------------------------------------------------

class TestWriteVerbs:
    def test_epoch_lifecycle_and_as_of(self):
        client = make_client()
        schema = default_schema()
        rows = seeded_rows(schema, 64, seed=1)
        vt = client.create_versioned_table("t", schema, rows)
        assert vt.shards[0].chain.oldest_epoch == 0
        assert (vt.epoch, vt.num_rows) == (0, 64)

        extra = seeded_rows(schema, 8, seed=2, start_a=1000)
        epoch, _ = client.insert(vt, extra)
        assert epoch == 1 and vt.num_rows == 72

        epoch, _ = client.update_where(vt, Compare("a", "<", 10), {"c": 7})
        assert epoch == 2 and vt.num_rows == 72

        epoch, _ = client.delete_where(vt, Compare("a", ">=", 1004))
        assert epoch == 3 and vt.num_rows == 68

        model = np.concatenate([rows, extra])
        m2 = model.copy()
        m2["c"][m2["a"] < 10] = 7
        m3 = m2[m2["a"] < 1004]
        query = full_scan_query(schema)
        for as_of, expected in [(0, rows), (1, model), (2, m2), (3, m3)]:
            result, _ = client.scan_versioned(vt, query, as_of=as_of)
            assert result.data == schema.to_bytes(expected), f"epoch {as_of}"

    def test_no_match_writes_commit_noop_epochs(self):
        client = make_client()
        schema = default_schema()
        vt = client.create_versioned_table("t", schema,
                                           seeded_rows(schema, 16, seed=3))
        epoch, _ = client.update_where(vt, Compare("a", ">", 10**9), {"c": 1})
        assert epoch == 1 and vt.num_deltas == 0
        epoch, _ = client.delete_where(vt, Compare("a", ">", 10**9))
        assert epoch == 2 and vt.num_deltas == 0
        result, _ = client.scan_versioned(vt, full_scan_query(schema),
                                          as_of=1)
        base, _ = client.scan_versioned(vt, full_scan_query(schema), as_of=0)
        assert result.data == base.data

    def test_delete_then_reinsert_uses_fresh_rowids(self):
        client = make_client()
        schema = default_schema()
        rows = seeded_rows(schema, 8, seed=4)
        vt = client.create_versioned_table("t", schema, rows)
        client.delete_where(vt, None)                  # delete everything
        assert vt.num_rows == 0
        client.insert(vt, rows)
        result, _ = client.scan_versioned(vt, full_scan_query(schema))
        assert result.data == schema.to_bytes(rows)

    def test_reserved_rowid_column_rejected(self):
        client = make_client()
        schema = Schema([Column(ROWID_COLUMN, "uint64", 8),
                         Column("x", "int64", 8)])
        with pytest.raises(QueryError, match="reserved"):
            client.create_versioned_table("t", schema, schema.empty(4))

    def test_smart_addressing_rejected_on_versioned_scan(self):
        """Forced smart addressing is refused on a scan over deltas (the
        merge ingest consumes the full row stream) and runs on the same
        table without them: before its first write, and at an epoch
        before it."""
        client = make_client()
        schema = default_schema()
        rows = seeded_rows(schema, 16, seed=5)
        vt = client.create_table("t", schema, rows)
        query = Query(projection=("a", "b"), smart_addressing=True)
        projected = Schema([schema.column("a"), schema.column("b")])
        expected = projected.empty(len(rows))
        for name in projected.names:
            expected[name] = rows[name]
        result, _ = client.far_view_planned(vt, query, placement="offload")
        assert result.report.ingest_mode == "smart"
        assert canonical_result_bytes(result) == projected.to_bytes(expected)
        client.update_where(vt, None, {"c": 1})
        with pytest.raises(QueryError, match="smart addressing"):
            client.far_view(vt, query)
        with pytest.raises(QueryError, match="smart addressing"):
            client.far_view_planned(vt, query, placement="offload")
        result, _ = client.far_view_planned(vt, query, placement="offload",
                                            as_of=0)
        assert result.report.ingest_mode == "smart"
        assert canonical_result_bytes(result) == projected.to_bytes(expected)

    def test_forced_smart_addressing_on_a_compacted_chain(self):
        """Compaction leaves no delta at the epoch, so forced smart
        addressing runs on the chain and returns the sha256 of the same
        rows created as a table that was never written."""
        client = make_client()
        schema = default_schema()
        rows = seeded_rows(schema, 64, seed=6)
        extra = seeded_rows(schema, 8, seed=7, start_a=1000)
        vt = client.create_table("t", schema, rows)
        client.update_where(vt, Compare("a", "<", 10), {"c": 7})
        client.insert(vt, extra)
        client.delete_where(vt, Compare("a", ">=", 1004))
        client.compact(vt)
        model = np.concatenate([rows, extra])
        model["c"][model["a"] < 10] = 7
        plain = client.create_table("p", schema, model[model["a"] < 1004])
        query = Query(projection=("a", "c"), smart_addressing=True)
        written, _ = client.far_view(vt, query)
        fresh, _ = client.far_view(plain, query)
        assert written.report.ingest_mode == fresh.report.ingest_mode == \
            "smart"
        assert sha(written.data) == sha(fresh.data)

    def test_rows_from_literals_types_and_errors(self):
        schema = Schema([Column("i", "int64", 8), Column("f", "float64", 8),
                         Column("s", "char", 4)])
        rows = rows_from_literals(schema, [(1, 2.5, "ab"), (-3, 4, "")])
        assert rows["i"].tolist() == [1, -3]
        assert rows["f"].tolist() == [2.5, 4.0]
        assert rows["s"].tolist() == [b"ab", b""]
        with pytest.raises(QueryError, match="does not fit"):
            rows_from_literals(schema, [(1, 2.0, "toolong")])
        with pytest.raises(QueryError, match="3 columns"):
            rows_from_literals(schema, [(1, 2.0)])
        with pytest.raises(QueryError, match="non-integral"):
            rows_from_literals(schema, [(1.5, 2.0, "x")])
        with pytest.raises(QueryError, match="out of range"):
            rows_from_literals(schema, [(2 ** 70, 2.0, "x")])


class TestCompaction:
    def test_compaction_preserves_bytes_and_frees_segments(self):
        client = make_client()
        node = client.node
        schema = default_schema()
        vt = client.create_versioned_table("t", schema,
                                           seeded_rows(schema, 256, seed=6))
        client.update_where(vt, Compare("a", "<", 64), {"d": 1})
        client.insert(vt, seeded_rows(schema, 32, seed=7, start_a=5000))
        client.delete_where(vt, Compare("a", ">=", 5016))
        before, _ = client.scan_versioned(vt, full_scan_query(schema))
        assert vt.num_deltas == 3

        free_before = node.mmu.allocator.free_pages
        epoch, _ = client.compact(vt)
        assert vt.num_deltas == 0 and vt.shards[0].chain.compactions == 1
        assert epoch == vt.epoch == vt.shards[0].chain.oldest_epoch == 3
        assert node.mmu.allocator.free_pages >= free_before  # chain folded
        after, _ = client.scan_versioned(vt, full_scan_query(schema))
        assert after.data == before.data

    def test_pre_compaction_epochs_become_unreadable(self):
        client = make_client()
        schema = default_schema()
        vt = client.create_versioned_table("t", schema,
                                           seeded_rows(schema, 32, seed=8))
        client.update_where(vt, Compare("a", "<", 4), {"c": 1})
        client.compact(vt)
        with pytest.raises(QueryError, match="not readable"):
            client.scan_versioned(vt, full_scan_query(schema), as_of=0)

    def test_compacting_empty_visible_set_refuses(self):
        client = make_client()
        schema = default_schema()
        vt = client.create_versioned_table("t", schema,
                                           seeded_rows(schema, 8, seed=9))
        client.delete_where(vt, None)
        with pytest.raises(Exception, match="cannot compact"):
            client.compact(vt)


class TestDropTable:
    def test_drop_plain_table_by_handle_and_name(self):
        client = make_client()
        node = client.node
        schema = default_schema()
        free0 = node.mmu.allocator.free_pages
        from repro.core.table import FTable
        table = FTable("p", schema, 64)
        client.alloc_table_mem(table)
        client.table_write(table, seeded_rows(schema, 64, seed=10))
        client.drop_table(table)
        assert node.mmu.allocator.free_pages == free0
        assert "p" not in client.catalog

        table2 = FTable("q", schema, 64)
        client.alloc_table_mem(table2)
        client.drop_table("q")
        assert node.mmu.allocator.free_pages == free0

    def test_drop_versioned_table_frees_whole_chain(self):
        client = make_client()
        node = client.node
        free0 = node.mmu.allocator.free_pages
        schema = default_schema()
        vt = client.create_versioned_table("t", schema,
                                           seeded_rows(schema, 64, seed=11))
        client.update_where(vt, Compare("a", "<", 8), {"c": 1})
        client.insert(vt, seeded_rows(schema, 8, seed=12, start_a=900))
        client.compact(vt)
        client.update_where(vt, Compare("a", "<", 4), {"c": 2})
        client.drop_table(vt)
        assert node.mmu.allocator.free_pages == free0
        assert "t" not in client.catalog

    @pytest.mark.parametrize("num_nodes", [1, 2])
    def test_drop_by_name_on_both_constructors(self, num_nodes):
        """One ``drop_table``, handle or name.  Failing-first: on a pool
        a name was ``AttributeError: 'str' object has no attribute
        'shards'``; an unknown name is a ``CatalogError`` everywhere."""
        from repro.common.errors import CatalogError
        if num_nodes == 1:
            client = make_client()
            nodes = [client.node]
        else:
            cluster = FarviewCluster(Simulator(), num_nodes, TEST_CONFIG)
            client = ClusterClient(cluster)
            client.open_connection()
            nodes = cluster.nodes
        free0 = [n.mmu.allocator.free_pages for n in nodes]
        schema = default_schema()
        rows = seeded_rows(schema, 64, seed=14)
        client.create_table("p", schema, rows, PartitionSpec(replicas=2))
        vt = client.create_versioned_table("v", schema, rows)
        client.update_where(vt, Compare("a", "<", 10), {"c": 5})
        client.drop_table("p")
        client.drop_table("v")
        assert [n.mmu.allocator.free_pages for n in nodes] == free0
        assert "p" not in client.catalog and "v" not in client.catalog
        with pytest.raises(CatalogError, match="not in catalog"):
            client.drop_table("p")

    def test_cluster_drop_reuses_single_node_drop(self):
        sim = Simulator()
        cluster = FarviewCluster(sim, 2, TEST_CONFIG)
        cc = ClusterClient(cluster)
        cc.open_connection()
        free0 = [n.mmu.allocator.free_pages for n in cluster.nodes]
        schema = default_schema()
        rows = seeded_rows(schema, 64, seed=13)
        st_plain = cc.create_table("p", schema, rows)
        st_versioned = cc.create_versioned_table("v", schema, rows)
        cc.update_where(st_versioned, Compare("a", "<", 10), {"c": 5})
        cc.drop_table(st_plain)
        cc.drop_table(st_versioned)
        assert [n.mmu.allocator.free_pages for n in cluster.nodes] == free0
        assert "p" not in cc.catalog and "v" not in cc.catalog


# ---------------------------------------------------------------------------
# Snapshot isolation under concurrency
# ---------------------------------------------------------------------------

class TestScanUnderUpdate:
    def test_scan_pins_epoch_against_concurrent_writer(self):
        client = make_client()
        sim = client.sim
        schema = default_schema()
        rows = seeded_rows(schema, 2048, seed=14)
        vt = client.create_versioned_table("t", schema, rows)
        query = select_distinct(["c"])
        client.scan_versioned(vt, query)           # deploy

        captured = {}

        def reader():
            captured["epoch"] = vt.epoch
            result = yield from client.scan_versioned_proc(vt, query)
            captured["result"] = result
            captured["epoch_at_finish"] = vt.epoch

        def writer():
            for batch in range(3):
                yield from client.update_where_proc(
                    vt, Compare("a", "<", 500 * (batch + 1)),
                    {"c": 10_000 + batch})

        procs = [sim.process(reader()), sim.process(writer())]
        sim.run()
        assert all(p.triggered for p in procs)
        # The writer really did commit while the scan was in flight.
        assert captured["epoch_at_finish"] > captured["epoch"]
        replay, _ = client.scan_versioned(vt, query,
                                          as_of=captured["epoch"])
        assert replay.data == captured["result"].data
        assert vt.shards[0].chain.active_pins == 0

    def test_compaction_mid_scan_defers_frees_until_reader_ends(self):
        client = make_client()
        sim = client.sim
        schema = default_schema()
        rows = seeded_rows(schema, 2048, seed=15)
        vt = client.create_versioned_table("t", schema, rows)
        client.update_where(vt, Compare("a", "<", 512), {"c": 1})
        client.insert(vt, seeded_rows(schema, 64, seed=16, start_a=9000))
        query = full_scan_query(schema)
        expected, _ = client.scan_versioned(vt, query)   # also deploys
        chain = vt.shards[0].chain

        captured = {}

        def reader():
            result = yield from client.scan_versioned_proc(vt, query)
            captured["result"] = result

        def compactor():
            yield from client.compact_proc(vt)
            # Observed the instant compaction finished: the reader must
            # still be pinning the superseded segments.
            captured["pins_at_compaction"] = chain.active_pins
            captured["retired_at_compaction"] = chain.retired_segments

        procs = [sim.process(reader()), sim.process(compactor())]
        sim.run()
        assert all(p.triggered for p in procs)
        assert captured["pins_at_compaction"] >= 1, \
            "compaction should have completed mid-scan"
        assert captured["retired_at_compaction"] > 0, \
            "superseded segments must be parked, not freed, under a pin"
        assert captured["result"].data == expected.data
        # Once the reader released its pin, the retired batch was freed.
        assert chain.retired_segments == 0 and chain.active_pins == 0


# ---------------------------------------------------------------------------
# Cost-based placement over version chains
# ---------------------------------------------------------------------------

class TestVersionedPlacement:
    def _chained_table(self, client, n=2048, batches=4):
        schema = default_schema()
        vt = client.create_versioned_table("t", schema,
                                           seeded_rows(schema, n, seed=17))
        per = n // (2 * batches)
        for b in range(batches):
            client.update_where(
                vt, And(Compare("a", ">=", b * per),
                        Compare("a", "<", (b + 1) * per)),
                {"c": 100 + b})
        return schema, vt

    def test_ship_and_auto_match_offload_bytes(self, assert_uniform_result):
        client = make_client()
        schema, vt = self._chained_table(client)
        query = Query(predicate=Compare("a", "<", 1024), label="sel")
        stats = PlanStats(selectivity=0.5)
        results = []
        for placement in ("offload", "ship", "auto"):
            result, elapsed = client.scan_versioned(
                vt, query, placement=placement, stats=stats)
            assert_uniform_result(result, elapsed)
            results.append(result)
        offload, ship, auto = results
        assert (canonical_result_bytes(ship)
                == canonical_result_bytes(offload))
        assert (canonical_result_bytes(auto)
                == canonical_result_bytes(offload))
        assert ship.explain is not None and ship.explain.chosen == "ship"

    def test_crossover_shifts_with_delta_fraction(self):
        """The ship estimate must grow faster than the offload estimate
        as the chain deepens (the client pays the software merge)."""
        client = make_client()
        schema = default_schema()
        vt = client.create_versioned_table(
            "t", schema, seeded_rows(schema, 2048, seed=18))
        query = Query(predicate=Compare("a", "<", 1024), label="sel")
        plan0 = client.plan(vt, query)
        ratio0 = plan0.est_ship_ns / plan0.est_offload_ns
        for b in range(6):
            client.update_where(vt, Compare("a", "<", 1024), {"c": b})
        plan6 = client.plan(vt, query)
        ratio6 = plan6.est_ship_ns / plan6.est_offload_ns
        assert plan6.est_ship_ns > plan0.est_ship_ns
        assert ratio6 > ratio0


# ---------------------------------------------------------------------------
# SQL write statements end to end
# ---------------------------------------------------------------------------

class TestSqlWritePath:
    def test_insert_update_delete_statements(self):
        client = make_client()
        schema = default_schema()
        vt = client.create_versioned_table("t", schema,
                                           seeded_rows(schema, 32, seed=19))
        epoch, _ = client.sql(
            "INSERT INTO t VALUES (500, 1.5, 2, 3, 4, 5, 6, 7), "
            "(501, -2.5, 2, 3, 4, 5, 6, 7)")
        assert epoch == 1 and vt.num_rows == 34
        epoch, _ = client.sql("UPDATE t SET d = -9, e = 4 WHERE a >= 500")
        assert epoch == 2
        epoch, _ = client.sql("DELETE FROM t WHERE a = 501;")
        assert epoch == 3 and vt.num_rows == 33
        result, _ = client.sql("SELECT a, d FROM t WHERE a >= 500")
        assert result.num_rows == 1
        row = result.rows()[0]
        assert int(row["a"]) == 500 and int(row["d"]) == -9

    def test_write_statement_against_plain_table_fails(self):
        client = make_client()
        schema = default_schema()
        from repro.core.table import FTable
        table = FTable("p", schema, 8)
        client.alloc_table_mem(table)
        client.table_write(table, seeded_rows(schema, 8, seed=20))
        with pytest.raises(QueryError, match="not writable"):
            client.sql("DELETE FROM p WHERE a = 1")


# ---------------------------------------------------------------------------
# 4-node cluster: two-phase epoch broadcast
# ---------------------------------------------------------------------------

def make_cluster_pair(num_rows=256, num_nodes=4, seed=21):
    """Single-node client + N-node cluster client over identical data."""
    schema = default_schema()
    rows = seeded_rows(schema, num_rows, seed=seed)
    rows["c"] = rows["a"] % 13
    single = make_client()
    vt = single.create_versioned_table("t", schema, rows)
    cc = ClusterClient(FarviewCluster(Simulator(), num_nodes, TEST_CONFIG))
    cc.open_connection()
    vst = cc.create_versioned_table("t", schema, rows)
    return schema, rows, single, vt, cc, vst


class TestClusterVersioning:
    def test_every_epoch_byte_identical_to_single_node(self):
        schema, rows, single, vt, cc, vst = make_cluster_pair()
        extra = seeded_rows(schema, 16, seed=22, start_a=4000)
        extra["c"] = extra["a"] % 13
        for client, table in ((single, vt), (cc, vst)):
            assert client.insert(table, extra)[0] == 1
            assert client.update_where(table, Compare("a", "<", 40),
                                       {"e": 9})[0] == 2
            assert client.delete_where(table, Compare("a", ">=", 4008))[0] == 3
        assert [s.chain.epoch for s in vst.shards] == [3] * 4
        query = full_scan_query(schema)
        for epoch in range(4):
            r1, _ = single.scan_versioned(vt, query, as_of=epoch)
            r4, _ = cc.scan_versioned(vst, query, as_of=epoch)
            assert sha(r4.data) == sha(r1.data), f"epoch {epoch}"

    def test_distinct_and_int_groupby_merges_match_single_node(self):
        schema, rows, single, vt, cc, vst = make_cluster_pair()
        for client, table in ((single, vt), (cc, vst)):
            client.update_where(table, Compare("a", "<", 100), {"c": 99})
        d1, _ = single.far_view(vt, select_distinct(["c"]))
        d4, _ = cc.far_view(vst, select_distinct(["c"]))
        assert d4.data == d1.data
        g1, _ = single.far_view(vt, group_by_sum("c", "d"))
        g4, _ = cc.far_view(vst, group_by_sum("c", "d"))
        assert g4.data == g1.data

    def test_cluster_snapshot_under_concurrent_writer(self):
        schema, rows, single, vt, cc, vst = make_cluster_pair(num_rows=1024)
        sim = cc.sim
        query = select_distinct(["c"])
        cc.scan_versioned(vst, query)          # deploy shard pipelines

        captured = {}

        def reader():
            captured["epoch"] = cc.snapshot(vst)
            result = yield from cc.scan_versioned_proc(vst, query)
            captured["result"] = result

        def writer():
            for batch in range(3):
                yield from cc.update_where_proc(
                    vst, Compare("a", "<", 300 * (batch + 1)),
                    {"c": 50 + batch})

        procs = [sim.process(reader()), sim.process(writer())]
        sim.run()
        assert all(p.triggered for p in procs)
        assert cc.snapshot(vst) == 3
        replay, _ = cc.scan_versioned(vst, query, as_of=captured["epoch"])
        assert replay.data == captured["result"].data

    def test_cluster_compaction_and_sql_writes(self):
        schema, rows, single, vt, cc, vst = make_cluster_pair()
        statement = "UPDATE t SET e = 123 WHERE a < 77"
        for client in (single, cc):
            client.sql(statement)
            client.sql("INSERT INTO t VALUES (9000, 0.5, 1, 2, 3, 4, 5, 6)")
        cc.compact(vst)
        single.compact(vt)
        query = full_scan_query(schema)
        r1, _ = single.scan_versioned(vt, query)
        r4, _ = cc.scan_versioned(vst, query)
        assert r4.data == r1.data
        assert vst.num_deltas == 0

    def test_non_chunk_partition_rejected(self):
        """A write to a hash-partitioned or a replicated table is refused
        typed before anything is allocated; the table stays readable at
        epoch 0."""
        cc = ClusterClient(FarviewCluster(Simulator(), 2, TEST_CONFIG))
        cc.open_connection()
        schema = default_schema()
        rows = seeded_rows(schema, 32, seed=23)
        nodes = [cc.node_client(i).node for i in range(2)]
        for name, spec in (("h", PartitionSpec("hash", key="a")),
                           ("r", PartitionSpec(replicas=2))):
            table = cc.create_table(name, schema, rows, partition=spec)
            assert not table.writable
            free0 = [n.mmu.allocator.free_pages for n in nodes]
            with pytest.raises(QueryError, match="chunk"):
                cc.insert(table, rows[:2])
            with pytest.raises(QueryError, match="not writable"):
                cc.update_where(table, None, {"c": 1})
            assert [n.mmu.allocator.free_pages for n in nodes] == free0
            assert table.epoch == 0 and table.num_rows == 32


# ---------------------------------------------------------------------------
# VersionView.materialize against a per-row replay keyed by row id
# ---------------------------------------------------------------------------

def check_materialize_against_replay(schema, base_ids, base, segments):
    """Materialize ``base`` (row images under ascending ``base_ids``) and
    ``segments`` (``(kind, row ids, row images)`` in commit order), and
    compare with replaying them one row at a time into a dict keyed by
    row id: an insert adds, an update replaces a live row only, a delete
    drops; the visible rows come out in ascending row id."""
    images: dict[str, bytes] = {}

    def segment(name, table_schema, data):
        images[name] = data
        return FTable(name, table_schema, len(data) // table_schema.row_width)

    replay = dict(zip(base_ids, base))
    deltas = []
    for epoch, (kind, ids, rows) in enumerate(segments, 1):
        if kind == "delete":
            data, table_schema = (np.array(ids, dtype="<u8").tobytes(),
                                  delete_schema())
        else:
            data = b"".join(i.to_bytes(8, "little") + row
                            for i, row in zip(ids, rows))
            table_schema = delta_schema(schema)
        for i, row in zip(ids, rows or [None] * len(ids)):
            if kind == "delete":
                replay.pop(i, None)
            elif kind == "insert" or i in replay:
                replay[i] = row
        deltas.append(DeltaSegment(
            epoch, kind, segment(f"t#s{epoch}", table_schema, data),
            len(ids)))
    view = VersionView("t", len(segments), schema,
                       segment("t", schema, b"".join(base)),
                       np.array(base_ids, dtype=np.uint64), tuple(deltas))
    rows, ids = view.materialize(lambda table: images[table.name])
    assert rows.dtype == schema.dtype and ids.dtype == np.uint64
    assert ids.tolist() == sorted(replay)
    assert rows.tobytes() == b"".join(replay[i] for i in sorted(replay))


#: fig20's 20-byte view base (``char(4)`` at offset 8) and the 64-byte
#: default schema.
MATERIALIZE_SCHEMAS = (fig20_views.BASE_SCHEMA, default_schema())


@st.composite
def delta_chains(draw):
    """A base segment under ascending (possibly compacted, so gapped) row
    ids, then up to six insert / update / delete segments.  An update or
    delete names any id handed out so far, deleted ones included, or the
    next one, which no row holds yet."""
    schema = draw(st.sampled_from(MATERIALIZE_SCHEMAS))
    row = st.binary(min_size=schema.row_width, max_size=schema.row_width)
    base_ids = sorted(draw(st.lists(st.integers(0, 40), unique=True,
                                    max_size=12)))
    base = [draw(row) for _ in base_ids]
    next_id = base_ids[-1] + 1 if base_ids else 0
    segments = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("insert", "update", "delete")))
        if kind == "insert":
            rows = draw(st.lists(row, max_size=5))
            ids = list(range(next_id, next_id + len(rows)))
            next_id += len(rows)
        else:
            ids = draw(st.lists(st.integers(0, next_id), unique=True,
                                max_size=6))
            rows = [draw(row) for _ in ids] if kind == "update" else []
        segments.append((kind, ids, rows))
    return schema, base_ids, base, segments


@settings(max_examples=150, deadline=None)
@given(delta_chains())
def test_materialize_matches_a_per_row_replay(chain):
    check_materialize_against_replay(*chain)


@pytest.mark.parametrize("schema", MATERIALIZE_SCHEMAS,
                         ids=lambda schema: f"{schema.row_width}B")
def test_materialize_updates_a_deleted_row_and_takes_zero_row_deltas(schema):
    def row(fill):
        return bytes([fill]) * schema.row_width

    check_materialize_against_replay(
        schema, [0, 1, 2, 5], [row(1), row(2), row(3), row(4)],
        [("delete", [1], []),
         ("update", [1, 5], [row(7), row(8)]),   # 1 is gone: only 5 moves
         ("insert", [], []), ("update", [], []), ("delete", [], []),
         ("insert", [6, 7], [row(9), row(10)]),
         ("update", [7, 0], [row(11), row(12)])])


# ---------------------------------------------------------------------------
# Hypothesis: stateful interleaving of writers and snapshot readers
# ---------------------------------------------------------------------------

class VersioningMachine(RuleBasedStateMachine):
    """Random write batches against both the simulated node and a pure
    numpy model; every scan at a random readable epoch must be
    sha256-identical to the model's serialization at that epoch (the
    serial re-execution oracle)."""

    def __init__(self):
        super().__init__()
        self.client = make_client()
        self.schema = default_schema()
        rows = seeded_rows(self.schema, 48, seed=31)
        self.vt = self.client.create_versioned_table("t", self.schema, rows)
        self.model = rows.copy()
        self.history = {0: self.schema.to_bytes(rows)}
        self.next_a = 10_000
        self.batch = 0
        self.query = full_scan_query(self.schema)
        # A versioned dimension table for the join-under-update action.
        dim_rows = make_join_dim()
        self.dim = self.client.create_versioned_table(
            "dim", JOIN_DIM_SCHEMA, dim_rows)
        self.dim_model = dim_rows.copy()

    def _record(self, epoch):
        self.history[epoch] = self.schema.to_bytes(self.model)

    @rule(n=st.integers(min_value=1, max_value=12))
    def insert(self, n):
        rows = seeded_rows(self.schema, n, seed=100 + self.batch,
                           start_a=self.next_a)
        self.next_a += n
        self.batch += 1
        epoch, _ = self.client.insert(self.vt, rows)
        self.model = np.concatenate([self.model, rows])
        self._record(epoch)

    @rule(cut=st.integers(min_value=0, max_value=60),
          value=st.integers(min_value=-1000, max_value=1000))
    def update(self, cut, value):
        epoch, _ = self.client.update_where(self.vt, Compare("a", "<", cut),
                                            {"d": value})
        self.model = self.model.copy()
        self.model["d"][self.model["a"] < cut] = value
        self._record(epoch)

    @rule(cut=st.integers(min_value=0, max_value=80))
    def delete(self, cut):
        epoch, _ = self.client.delete_where(
            self.vt, And(Compare("a", ">=", cut),
                         Compare("a", "<", cut + 8)))
        keep = ~((self.model["a"] >= cut) & (self.model["a"] < cut + 8))
        self.model = self.model[keep]
        self._record(epoch)

    @precondition(lambda self: self.vt.num_deltas > 0
                  and self.vt.num_rows > 0)
    @rule()
    def compact(self):
        self.client.compact(self.vt)
        self.history = {e: img for e, img in self.history.items()
                        if e >= self.vt.shards[0].chain.oldest_epoch}

    @rule(data=st.data())
    def scan_random_epoch(self, data):
        epoch = data.draw(st.integers(
            self.vt.shards[0].chain.oldest_epoch, self.vt.epoch))
        result, _ = self.client.scan_versioned(self.vt, self.query,
                                               as_of=epoch)
        assert sha(result.data) == sha(self.history[epoch]), \
            f"snapshot at epoch {epoch} diverged from serial re-execution"

    @rule(value=st.integers(min_value=-100, max_value=100))
    def join_under_dim_update(self, value):
        """A join racing a dimension update pins its epoch: the probe
        must see the pre-update dimension, never a mix."""
        sim = self.client.sim
        query = Query(join=JoinSpec(self.dim, "id", "a", ("rate",)),
                      label="join-under-update")
        captured = {}

        def reader():
            result = yield from self.client.far_view_proc(self.vt, query)
            captured["result"] = result

        def dim_writer():
            yield from self.client.update_where_proc(
                self.dim, None, {"rate": float(value)})

        procs = [sim.process(reader()), sim.process(dim_writer())]
        sim.run()
        assert all(p.triggered for p in procs)
        expected = join_expected_bytes(self.model, self.schema,
                                       self.dim_model)
        assert sha(captured["result"].data) == sha(expected), \
            "concurrent dim update leaked into a pinned join"
        self.dim_model = self.dim_model.copy()
        self.dim_model["rate"] = float(value)

    @precondition(lambda self: self.dim.num_deltas > 0)
    @rule()
    def join_after_dim_compaction(self):
        """Compacting the dimension chain must not change join bytes."""
        self.client.compact(self.dim)
        result, _ = self.client.far_view(
            self.vt, Query(join=JoinSpec(self.dim, "id", "a", ("rate",)),
                           label="join-compacted"))
        expected = join_expected_bytes(self.model, self.schema,
                                       self.dim_model)
        assert sha(result.data) == sha(expected)

    @invariant()
    def visible_row_count_matches_model(self):
        assert self.vt.num_rows == len(self.model)
        assert self.vt.shards[0].chain.active_pins == 0
        assert self.dim.shards[0].chain.active_pins == 0


VersioningMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None)
TestVersioningMachine = VersioningMachine.TestCase


class ClusterVersioningMachine(RuleBasedStateMachine):
    """The same oracle on a 4-node cluster: every cluster-wide snapshot
    read must serialize identically to the numpy model at that epoch
    (which the single-node tests already pin to single-node bytes)."""

    def __init__(self):
        super().__init__()
        self.schema = default_schema()
        rows = seeded_rows(self.schema, 40, seed=41)
        self.cc = ClusterClient(
            FarviewCluster(Simulator(), 4, TEST_CONFIG))
        self.cc.open_connection()
        self.vst = self.cc.create_versioned_table("t", self.schema, rows)
        self.model = rows.copy()
        self.history = {0: self.schema.to_bytes(rows)}
        self.next_a = 10_000
        self.batch = 0
        self.query = full_scan_query(self.schema)
        # A plain sharded dimension for the broadcast-join action.
        dim_rows = make_join_dim()
        self.dim = self.cc.create_table("dim", JOIN_DIM_SCHEMA, dim_rows)
        self.dim_model = dim_rows.copy()

    def _record(self, epoch):
        self.history[epoch] = self.schema.to_bytes(self.model)

    @rule(n=st.integers(min_value=1, max_value=10))
    def insert(self, n):
        rows = seeded_rows(self.schema, n, seed=200 + self.batch,
                           start_a=self.next_a)
        self.next_a += n
        self.batch += 1
        epoch, _ = self.cc.insert(self.vst, rows)
        self.model = np.concatenate([self.model, rows])
        self._record(epoch)

    @rule(cut=st.integers(min_value=0, max_value=50),
          value=st.integers(min_value=-99, max_value=99))
    def update(self, cut, value):
        epoch, _ = self.cc.update_where(self.vst, Compare("a", "<", cut),
                                        {"e": value})
        self.model = self.model.copy()
        self.model["e"][self.model["a"] < cut] = value
        self._record(epoch)

    @rule(cut=st.integers(min_value=0, max_value=60))
    def delete(self, cut):
        epoch, _ = self.cc.delete_where(
            self.vst, And(Compare("a", ">=", cut),
                          Compare("a", "<", cut + 6)))
        keep = ~((self.model["a"] >= cut) & (self.model["a"] < cut + 6))
        self.model = self.model[keep]
        self._record(epoch)

    @rule(data=st.data())
    def scan_random_epoch(self, data):
        floor = max(s.chain.oldest_epoch for s in self.vst.shards)
        epoch = data.draw(st.integers(floor, self.vst.epoch))
        result, _ = self.cc.scan_versioned(self.vst, self.query,
                                           as_of=epoch)
        assert sha(result.data) == sha(self.history[epoch]), \
            f"cluster snapshot at epoch {epoch} diverged"

    @rule(value=st.integers(min_value=-99, max_value=99))
    def broadcast_join_under_update(self, value):
        """A scatter-gather broadcast join racing a cluster-wide fact
        update must merge to the pre-update model's bytes."""
        sim = self.cc.sim
        query = Query(join=JoinSpec(self.dim, "id", "a", ("rate",)),
                      label="cluster-join")
        captured = {}

        def reader():
            result = yield from self.cc.far_view_proc(self.vst, query)
            captured["result"] = result

        def fact_writer():
            yield from self.cc.update_where_proc(
                self.vst, Compare("a", "<", 30), {"d": value})

        procs = [sim.process(reader()), sim.process(fact_writer())]
        sim.run()
        assert all(p.triggered for p in procs)
        expected = join_expected_bytes(self.model, self.schema,
                                       self.dim_model)
        assert sha(captured["result"].data) == sha(expected), \
            "concurrent fact update leaked into a pinned broadcast join"
        self.model = self.model.copy()
        self.model["d"][self.model["a"] < 30] = value
        self._record(self.vst.epoch)

    @invariant()
    def shard_epochs_agree(self):
        assert all(s.chain.epoch == self.vst.epoch
                   for s in self.vst.shards)


ClusterVersioningMachine.TestCase.settings = settings(
    max_examples=5, stateful_step_count=10, deadline=None)
TestClusterVersioningMachine = ClusterVersioningMachine.TestCase
