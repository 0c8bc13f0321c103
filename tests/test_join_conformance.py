"""Join conformance: every join path vs a numpy serial re-execution model.

The lock for the end-to-end join PR: a serial, from-first-principles
numpy oracle (dict build, row-at-a-time probe — deliberately sharing no
code with the operator or :func:`~repro.baselines.sw_ops.software_join`)
re-executes each generated join, and every execution path must produce
sha256-identical bytes:

* single-node full offload (``far_view``),
* the 2- and 4-node cluster broadcast join (scatter-gather merge),
* ship and auto placement (client-side software join),
* a versioned probe side (delta chain on the fact table),
* the SQL entry point (``SELECT ... FROM fact JOIN dim ON ...``).

Edge cases ride along: duplicate probe keys, empty build (versioned
dimension with every row deleted), empty probe (versioned fact with
every row deleted / all-false predicates), and no-match key ranges.
Build-side overflow must surface as the typed
:class:`~repro.common.errors.JoinBuildOverflowError` through every
entry point — never as silently wrong bytes.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (FarviewConfig, MemoryConfig,
                                 OperatorStackConfig)
from repro.common.errors import (FarviewError, JoinBuildOverflowError,
                                 OperatorError)
from repro.common.records import Column, Schema
from repro.core.api import (ClusterClient, FarviewClient,
                            canonical_result_bytes)
from repro.core.cluster import FarviewCluster
from repro.core.cost_model import PlanStats
from repro.core.node import FarviewNode
from repro.core.pipeline_compiler import join_arm
from repro.core.query import JoinSpec, Query
from repro.core.table import FTable
from repro.operators.selection import Compare
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * KB

TEST_CONFIG = FarviewConfig(memory=MemoryConfig(
    channels=2, channel_capacity=8 * MB, page_size=64 * KB))

FACT_SCHEMA = Schema([
    Column("a", "int64"),       # join key
    Column("b", "float64"),
    Column("c", "int64"),
])
DIM_SCHEMA = Schema([
    Column("id", "int64"),
    Column("rate", "float64"),
    Column("zone", "int64"),
])
#: The post-join schema (no name collisions between the two sides here).
JOINED_SCHEMA = Schema(list(FACT_SCHEMA.columns)
                       + [Column("rate", "float64"),
                          Column("zone", "int64")])


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_fact(keys, seed=0) -> np.ndarray:
    rows = FACT_SCHEMA.empty(len(keys))
    rng = np.random.default_rng(seed)
    rows["a"] = np.asarray(keys, dtype=np.int64)
    rows["b"] = rng.integers(0, 1000, len(keys)) * 0.5
    rows["c"] = rng.integers(-50, 50, len(keys))
    return rows


def make_dim(keys, seed=1) -> np.ndarray:
    rows = DIM_SCHEMA.empty(len(keys))
    rng = np.random.default_rng(seed)
    rows["id"] = np.asarray(keys, dtype=np.int64)
    rows["rate"] = rng.integers(0, 100, len(keys)) * 0.25
    rows["zone"] = rng.integers(0, 8, len(keys))
    return rows


def serial_join_model(fact: np.ndarray, dim: np.ndarray,
                      cut: int | None = None) -> bytes:
    """The oracle: serial dict-build + row-at-a-time probe, in numpy.

    Applies the optional ``a < cut`` filter first (the pipeline runs
    selection before the join), then emits each surviving fact row that
    finds its key in the dimension, extended with (rate, zone).
    Returns the canonical byte image under :data:`JOINED_SCHEMA`.
    """
    build: dict[int, int] = {}
    for j in range(len(dim)):
        key = int(dim["id"][j])
        assert key not in build, "test generator produced duplicate keys"
        build[key] = j
    out_rows = []
    for i in range(len(fact)):
        if cut is not None and not int(fact["a"][i]) < cut:
            continue
        j = build.get(int(fact["a"][i]))
        if j is None:
            continue
        out_rows.append((fact["a"][i], fact["b"][i], fact["c"][i],
                         dim["rate"][j], dim["zone"][j]))
    out = JOINED_SCHEMA.empty(len(out_rows))
    for i, values in enumerate(out_rows):
        for name, value in zip(JOINED_SCHEMA.names, values):
            out[name][i] = value
    return JOINED_SCHEMA.to_bytes(out)


def make_query(dim_table, cut: int | None = None) -> Query:
    return Query(predicate=Compare("a", "<", cut) if cut is not None
                 else None,
                 join=JoinSpec(dim_table, "id", "a", ("rate", "zone")),
                 label="conformance")


def single_client(config=TEST_CONFIG) -> FarviewClient:
    client = FarviewClient(FarviewNode(Simulator(), config))
    client.open_connection()
    return client


def upload(client, name, schema, rows) -> FTable:
    table = FTable(name, schema, len(rows))
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    return table


# ---------------------------------------------------------------------------
# The property: every path == the serial model
# ---------------------------------------------------------------------------

@st.composite
def join_case(draw):
    """A fact/dim pair with overlapping-but-not-identical key ranges,
    duplicate probe keys, and an optional probe-side filter."""
    dim_keys = draw(st.lists(st.integers(min_value=0, max_value=40),
                             min_size=1, max_size=20, unique=True))
    fact_keys = draw(st.lists(st.integers(min_value=0, max_value=60),
                              min_size=1, max_size=60))
    cut = draw(st.one_of(st.none(),
                         st.integers(min_value=0, max_value=60)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return dim_keys, fact_keys, cut, seed


@given(join_case())
@settings(max_examples=12, deadline=None)
def test_every_join_path_matches_serial_model(case):
    dim_keys, fact_keys, cut, seed = case
    fact = make_fact(fact_keys, seed=seed)
    dim = make_dim(dim_keys, seed=seed + 1)
    expected = serial_join_model(fact, dim, cut)

    # 1) single-node full offload
    client = single_client()
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    query = make_query(dim_table, cut)
    offload, _ = client.far_view(fact_table, query)
    assert sha(offload.data) == sha(expected), "offload diverged"

    # 2) ship and auto placement on fresh benches
    for placement in ("ship", "auto"):
        c = single_client()
        dt = upload(c, "dim", DIM_SCHEMA, dim)
        ft = upload(c, "fact", FACT_SCHEMA, fact)
        result, _ = c.far_view_planned(
            ft, make_query(dt, cut), placement=placement,
            stats=PlanStats(selectivity=0.5, join_match_ratio=0.5))
        assert sha(canonical_result_bytes(result)) == sha(expected), \
            f"{placement} placement diverged"

    # 3) cluster broadcast join, N = 2 and 4
    for num_nodes in (2, 4):
        cc = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                          TEST_CONFIG))
        cc.open_connection()
        dim_sharded = cc.create_table("dim", DIM_SCHEMA, dim)
        fact_sharded = cc.create_table("fact", FACT_SCHEMA, fact)
        result, _ = cc.far_view(fact_sharded, make_query(dim_sharded, cut))
        assert sha(result.data) == sha(expected), \
            f"{num_nodes}-node broadcast join diverged"

    # 4) versioned probe side: rebuild the fact table as a version chain
    #    whose visible rows equal `fact` (insert-split + a no-op epoch).
    vc = single_client()
    vdim = upload(vc, "dim", DIM_SCHEMA, dim)
    head = max(1, len(fact) // 2)
    vfact = vc.create_versioned_table("vfact", FACT_SCHEMA, fact[:head])
    if len(fact) > head:
        vc.insert(vfact, fact[head:])
    vc.update_where(vfact, Compare("a", "<", -1), {"c": 0})  # no-op epoch
    versioned, _ = vc.far_view(vfact, make_query(vdim, cut))
    assert sha(versioned.data) == sha(expected), "versioned probe diverged"

    # 5) SQL entry point (catalog-resolved join)
    sql_client = single_client()
    upload(sql_client, "dim", DIM_SCHEMA, dim)     # registers in catalog
    upload(sql_client, "fact", FACT_SCHEMA, fact)
    statement = ("SELECT fact.a, fact.b, fact.c, dim.rate, dim.zone "
                 "FROM fact JOIN dim ON fact.a = dim.id")
    if cut is not None:
        statement += f" WHERE fact.a < {cut}"
    sql_result, _ = sql_client.sql(statement)
    assert sha(sql_result.data) == sha(expected), "SQL entry diverged"


# ---------------------------------------------------------------------------
# Deterministic edge cases
# ---------------------------------------------------------------------------

def test_duplicate_probe_keys_fan_out_in_probe_order():
    fact = make_fact([3, 3, 3, 7, 3], seed=2)
    dim = make_dim([3, 5], seed=3)
    client = single_client()
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    result, _ = client.far_view(fact_table, make_query(dim_table))
    assert sha(result.data) == sha(serial_join_model(fact, dim))
    assert result.num_rows == 4      # key 7 misses, every 3 matches


def test_no_match_and_filtered_empty_probe():
    fact = make_fact([10, 11, 12], seed=4)
    dim = make_dim([0, 1, 2], seed=5)
    client = single_client()
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    no_match, _ = client.far_view(fact_table, make_query(dim_table))
    assert no_match.num_rows == 0
    assert sha(no_match.data) == sha(serial_join_model(fact, dim))
    # Predicate filters every probe row before the join stage.
    empty_probe, _ = client.far_view(fact_table, make_query(dim_table, 0))
    assert empty_probe.num_rows == 0
    assert sha(empty_probe.data) == sha(serial_join_model(fact, dim, 0))


def test_versioned_empty_build_and_empty_probe_end_to_end():
    """Delete-all on a versioned side makes genuinely empty join inputs
    representable end to end (zero-row plain tables cannot allocate)."""
    fact = make_fact([0, 1, 2, 3], seed=6)
    dim = make_dim([0, 1], seed=7)
    client = single_client()
    vdim = client.create_versioned_table("dim", DIM_SCHEMA, dim)
    vfact = client.create_versioned_table("fact", FACT_SCHEMA, fact)

    client.delete_where(vdim, None)          # empty build side
    assert vdim.num_rows == 0
    result, _ = client.far_view(vfact, make_query(vdim))
    assert result.num_rows == 0
    assert sha(result.data) == sha(serial_join_model(fact, dim[:0]))

    client2 = single_client()
    vdim2 = client2.create_versioned_table("dim", DIM_SCHEMA, dim)
    vfact2 = client2.create_versioned_table("fact", FACT_SCHEMA, fact)
    client2.delete_where(vfact2, None)       # empty probe side
    assert vfact2.num_rows == 0
    result2, _ = client2.far_view(vfact2, make_query(vdim2))
    assert result2.num_rows == 0
    assert sha(result2.data) == sha(serial_join_model(fact[:0], dim))


def test_join_pins_dim_epoch_against_concurrent_update():
    """A join in flight must not observe dimension writes that commit
    mid-scan — the build side pins its epoch like any snapshot scan."""
    fact = make_fact(list(range(32)) * 8, seed=8)
    dim = make_dim(list(range(32)), seed=9)
    client = single_client()
    sim = client.sim
    vdim = client.create_versioned_table("dim", DIM_SCHEMA, dim)
    vfact = client.create_versioned_table("fact", FACT_SCHEMA, fact)
    query = make_query(vdim)
    client.far_view(vfact, query)            # deploy

    captured = {}

    def reader():
        result = yield from client.far_view_proc(vfact, query)
        captured["result"] = result

    def dim_writer():
        yield from client.update_where_proc(vdim, None, {"rate": -1.0})

    procs = [sim.process(reader()), sim.process(dim_writer())]
    sim.run()
    assert all(p.triggered for p in procs)
    assert sha(captured["result"].data) == sha(serial_join_model(fact, dim)), \
        "concurrent dim update leaked into a pinned join"
    assert vdim.shards[0].chain.active_pins == 0
    # A fresh scan sees the committed dimension write.
    after, _ = client.far_view(vfact, query)
    updated = dim.copy()
    updated["rate"] = -1.0
    assert sha(after.data) == sha(serial_join_model(fact, updated))


def _placement_bench():
    """2-node pool, a fact table hash-partitioned on the join key (so
    every strategy's layout exists) and a 24-row dimension table."""
    cc = ClusterClient(FarviewCluster(Simulator(), 2, TEST_CONFIG))
    cc.open_connection()
    free0 = [n.mmu.allocator.free_pages for n in cc.cluster.nodes]
    fact = cc.create_table("fact", FACT_SCHEMA,
                           make_fact([i % 24 for i in range(96)], seed=20),
                           PartitionSpec("hash", key="a"))
    dim = cc.create_table("dim", DIM_SCHEMA,
                          make_dim(list(range(24)), seed=21))
    join = JoinSpec(dim, "id", "a", ("rate", "zone"))
    return cc, free0, fact, dim, join


@pytest.mark.parametrize("strategy", ["broadcast", "shuffle"])
def test_concurrent_broadcasts_share_one_replica_set(strategy):
    """Two scans racing the first placement of the same dimension table
    must share a single placement — no doubled move, no leaked pool
    memory when the tables are dropped."""
    cc, free0, fact, dim, join = _placement_bench()
    sim = cc.sim
    results = {}

    def requester(tag):
        results[tag] = yield from cc._place_build_proc(join_arm(join), fact,
                                                       strategy)

    procs = [sim.process(requester(0)), sim.process(requester(1))]
    sim.run()
    assert all(p.triggered for p in procs)
    assert results[0] is results[1], "racing placements built two sets"
    assert len(cc._placements) == 1 and not cc._moves
    # One copy per (partition, node) of the layout: the whole build on
    # every node, or partition p on node p.
    assert set(results[0].copies) == (
        {(0, 0), (0, 1)} if strategy == "broadcast" else {(0, 0), (1, 1)})
    cc.drop_table(dim)
    assert not cc._placements
    cc.drop_table(fact)
    assert [n.mmu.allocator.free_pages for n in cc.cluster.nodes] == free0, \
        "racing placements leaked build-copy pool memory"


@pytest.mark.parametrize("strategy", ["broadcast", "shuffle"])
def test_drop_mid_move_frees_orphaned_copies(strategy):
    """A ``drop_table`` while the build copies are being written takes
    the move's in-flight handle away: the copies it finishes writing
    are freed, never cached under the dropped name."""
    cc, free0, fact, dim, join = _placement_bench()
    sim = cc.sim
    created = [n.mmu.allocator.free_pages for n in cc.cluster.nodes]
    outcome = []

    def requester():
        try:
            yield from cc._place_build_proc(join_arm(join), fact, strategy)
        except FarviewError as exc:  # the build vanished under the join
            outcome.append(exc)

    def dropper():
        # The first copy allocation marks the write phase: the build
        # has been gathered, the copies are on the wire.
        for _ in range(10_000):
            if [n.mmu.allocator.free_pages
                    for n in cc.cluster.nodes] != created:
                break
            yield sim.timeout(100.0)
        assert cc._moves, "no move in flight to drop under"
        cc.drop_table(dim)

    procs = [sim.process(requester()), sim.process(dropper())]
    sim.run()
    assert all(p.triggered for p in procs)
    assert outcome, "a join against a dropped build side succeeded"
    assert not cc._placements and not cc._moves
    cc.drop_table(fact)
    assert [n.mmu.allocator.free_pages for n in cc.cluster.nodes] == free0, \
        "copies written after the drop were leaked"


@pytest.mark.parametrize("strategy", ["broadcast", "shuffle"])
def test_a_commit_frees_the_join_copies_of_its_table(strategy):
    """A commit to the build side retires the copies placed from it.
    The build is copied again once compaction leaves it without deltas,
    and that join probes the updated rates; before the retirement the
    cached pre-update copies answered (rates 0-24.75, silently wrong).
    Every copy is freed by the time the tables are dropped."""
    cc, free0, fact, dim, join = _placement_bench()
    dim_rows = make_dim(list(range(24)), seed=21)
    query = Query(join=join, label="join")

    def rates(result):
        rows = result.rows()
        return rows["a"], rows["rate"]

    keys, before = rates(cc.far_view(fact, query, join_strategy=strategy)[0])
    assert np.array_equal(before, dim_rows["rate"][keys])
    assert cc._placements
    cc.update_where(dim, Compare("id", "<", 8), {"rate": 999.0})
    assert not cc._placements, "the commit left copies of the old dim"
    with pytest.raises(QueryError, match="has deltas"):
        cc.far_view(fact, query, join_strategy=strategy)
    cc.compact(dim)
    keys, after = rates(cc.far_view(fact, query, join_strategy=strategy)[0])
    expected = np.where(keys < 8, 999.0, dim_rows["rate"][keys])
    assert np.array_equal(after, expected)
    cc.drop_table(dim)
    cc.drop_table(fact)
    assert [n.mmu.allocator.free_pages for n in cc.cluster.nodes] == free0


def test_a_join_racing_a_commit_keeps_the_copies_it_placed():
    """A join whose build copies are being placed when a commit to the
    build lands probes those copies (it started before the commit), and
    they are freed when it ends; the next join places the new rows."""
    cc, free0, fact, dim, join = _placement_bench()
    dim_rows = make_dim(list(range(24)), seed=21)
    query = Query(join=join, label="join")
    sim = cc.sim
    captured = {}

    def reader():
        captured["result"] = yield from cc.far_view_proc(fact, query)

    def writer():
        while not cc._moves:
            yield sim.timeout(10.0)
        yield from cc.update_where_proc(dim, None, {"rate": -1.0})

    commit = cc._commit

    def commit_during_the_move(table, outcomes):
        captured["moving"] = bool(cc._moves)
        return commit(table, outcomes)

    cc._commit = commit_during_the_move
    procs = [sim.process(reader()), sim.process(writer())]
    sim.run()
    assert all(p.ok for p in procs)
    assert captured["moving"], "the commit did not land mid-move"
    rows = captured["result"].rows()
    assert np.array_equal(rows["rate"], dim_rows["rate"][rows["a"]])
    assert not cc._placements and not cc._moves
    cc.compact(dim)
    rows = cc.far_view(fact, query)[0].rows()
    assert (rows["rate"] == -1.0).all()
    cc.drop_table(dim)
    cc.drop_table(fact)
    assert [n.mmu.allocator.free_pages for n in cc.cluster.nodes] == free0


# ---------------------------------------------------------------------------
# Build overflow: typed refusal through every entry point
# ---------------------------------------------------------------------------

TINY_HASH = FarviewConfig(
    memory=TEST_CONFIG.memory,
    operator_stack=OperatorStackConfig(cuckoo_tables=1, cuckoo_slots=8))


def test_build_overflow_is_typed_through_far_view_and_sql():
    fact = make_fact(list(range(64)), seed=10)
    dim = make_dim(list(range(64)), seed=11)
    client = single_client(TINY_HASH)
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    with pytest.raises(JoinBuildOverflowError):
        client.far_view(fact_table, make_query(dim_table))
    with pytest.raises(JoinBuildOverflowError):
        client.sql("SELECT a, rate FROM fact JOIN dim ON fact.a = dim.id")
    # The typed error is still an OperatorError for legacy callers.
    assert issubclass(JoinBuildOverflowError, OperatorError)


def test_build_overflow_is_typed_through_the_cluster():
    fact = make_fact(list(range(64)), seed=12)
    dim = make_dim(list(range(64)), seed=13)
    cc = ClusterClient(FarviewCluster(Simulator(), 2, TINY_HASH))
    cc.open_connection()
    dim_sharded = cc.create_table("dim", DIM_SCHEMA, dim)
    fact_sharded = cc.create_table("fact", FACT_SCHEMA, fact)
    with pytest.raises(JoinBuildOverflowError):
        cc.far_view(fact_sharded, make_query(dim_sharded))


def test_build_overflow_auto_placement_ships_and_stays_exact():
    """The planner's refusal is productive: auto falls back to the
    software join and the bytes still match the serial model."""
    fact = make_fact(list(range(64)) * 4, seed=14)
    dim = make_dim(list(range(64)), seed=15)
    client = single_client(TINY_HASH)
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    result, _ = client.far_view_planned(fact_table, make_query(dim_table),
                                        placement="auto")
    assert result.explain.chosen == "ship"
    assert sha(canonical_result_bytes(result)) == sha(
        serial_join_model(fact, dim))


#: One way and one kick: a 48-row build passes the 64-slot nominal
#: check at compile time and overflows while it loads.
KICK_LIMITED = FarviewConfig(
    memory=TEST_CONFIG.memory,
    operator_stack=OperatorStackConfig(cuckoo_tables=1, cuckoo_slots=64,
                                       cuckoo_max_kicks=1))


def test_kick_exhaustion_below_nominal_capacity_auto_falls_back():
    """Cuckoo kick chains can exhaust below the compiler's nominal
    capacity pre-check (data-dependent).  Pure offload surfaces the
    typed error from the build load; auto re-plans with the join on the
    client and still matches the serial model."""
    dim = make_dim(list(range(48)), seed=30)        # < 64 nominal slots
    fact = make_fact(list(range(48)) * 3, seed=31)
    probe_client = single_client(KICK_LIMITED)
    dim_table = upload(probe_client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(probe_client, "fact", FACT_SCHEMA, fact)
    with pytest.raises(JoinBuildOverflowError, match="does not fit"):
        probe_client.far_view(fact_table, make_query(dim_table))
    client = single_client(KICK_LIMITED)
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    result, _ = client.far_view_planned(fact_table, make_query(dim_table),
                                        placement="auto")
    assert "join" in result.explain.chain[result.explain.split:]
    assert sha(canonical_result_bytes(result)) == sha(
        serial_join_model(fact, dim))


def test_auto_replans_an_offload_whose_build_overflows_at_load():
    """With a cheap reconfiguration auto's first plan offloads the join,
    even to a cold region.  The build then overflows while it loads,
    below nominal capacity, and auto re-plans with
    ``refuse_join_offload`` — the join runs on the client, exactly."""
    dim = make_dim(list(range(48)), seed=30)
    fact = make_fact(list(range(48)) * 3, seed=31)
    client = single_client(replace(KICK_LIMITED, operator_stack=replace(
        KICK_LIMITED.operator_stack, reconfiguration_ns=1.0)))
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    query = make_query(dim_table)
    assert client.plan(fact_table, query, "auto").chosen == "offload"
    result, elapsed = client.far_view_planned(fact_table, query,
                                              placement="auto")
    assert result.explain.chosen == "ship"
    # The record times the whole call, the refused first attempt too.
    assert result.explain.actual_ns == result.response_time_ns == elapsed
    assert sha(canonical_result_bytes(result)) == sha(
        serial_join_model(fact, dim))


#: ``KICK_LIMITED`` with a reconfiguration so cheap that auto's plan
#: offloads the join even to a cold region.
CHEAP_KICK_LIMITED = replace(KICK_LIMITED, operator_stack=replace(
    KICK_LIMITED.operator_stack, reconfiguration_ns=1.0))


def test_auto_pays_a_refused_offload_once():
    """The region remembers a join build that overflowed while loading:
    after auto's first call pays the refused attempt, the plan keeps the
    join on the client, and each later call takes exactly the time of
    ``ship`` alone and still matches the serial model (every call paid
    the refusal before)."""
    dim = make_dim(list(range(48)), seed=30)
    fact = make_fact(list(range(48)) * 3, seed=31)
    shipper = single_client(CHEAP_KICK_LIMITED)
    query = make_query(upload(shipper, "dim", DIM_SCHEMA, dim))
    _, ship_ns = shipper.far_view_planned(
        upload(shipper, "fact", FACT_SCHEMA, fact), query, placement="ship")
    client = single_client(CHEAP_KICK_LIMITED)
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    query = make_query(dim_table)
    _, first = client.far_view_planned(fact_table, query, placement="auto")
    assert first > ship_ns
    assert client.plan(fact_table, query, "auto").chosen == "ship"
    for _ in range(3):
        result, elapsed = client.far_view_planned(fact_table, query,
                                                  placement="auto")
        assert result.explain.chosen == "ship"
        assert elapsed == pytest.approx(ship_ns, rel=1e-12)
        assert sha(canonical_result_bytes(result)) == sha(
            serial_join_model(fact, dim))


def test_a_refusal_is_forgotten_on_a_build_write_a_reload_or_recovery():
    """The refusal is keyed by the build side and its epoch.  A write to
    the build side, or another pipeline loaded into the region, forgets
    it: the next auto call tries the offload again, once, and the calls
    after it ship at once.  A node that recovers forgets every
    refusal."""
    dim = make_dim(list(range(48)), seed=30)
    fact = make_fact(list(range(48)) * 3, seed=31)
    client = single_client(CHEAP_KICK_LIMITED)
    dim_table = client.create_versioned_table("dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    query = make_query(dim_table)
    expected = sha(serial_join_model(fact, dim))
    forget = (lambda: None,
              lambda: client.update_where(dim_table, Compare("id", "<", -1),
                                          {"rate": 0.0}),
              lambda: client.far_view(fact_table, Query(
                  predicate=Compare("a", "<", 10))))
    for step in forget:
        step()
        times = [client.far_view_planned(fact_table, query,
                                         placement="auto") for _ in range(3)]
        _, ship_ns = client.far_view_planned(fact_table, query,
                                             placement="ship")
        assert times[0][1] > ship_ns
        for result, elapsed in times[1:]:
            assert result.explain.chosen == "ship"
            assert elapsed == pytest.approx(ship_ns, rel=1e-12)
            assert sha(canonical_result_bytes(result)) == expected
    region = client.connection.region
    assert region.refused is not None
    client.node.fail()
    client.node.recover()
    assert region.refused is None


def test_a_refused_build_leaves_no_pipeline_for_auto_to_retry():
    """A pipeline the node refused while loading its build does not stay
    resident: the region is cold again, so ``auto`` prices the offload
    cold and ships at once — each later call takes exactly the time of
    ``ship`` alone, with no failed attempt in front of it."""
    dim = make_dim(list(range(48)), seed=30)
    fact = make_fact(list(range(48)) * 3, seed=31)
    shipper = single_client(KICK_LIMITED)
    query = make_query(upload(shipper, "dim", DIM_SCHEMA, dim))
    _, ship_ns = shipper.far_view_planned(
        upload(shipper, "fact", FACT_SCHEMA, fact), query, placement="ship")
    client = single_client(KICK_LIMITED)
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    query = make_query(dim_table)
    with pytest.raises(JoinBuildOverflowError, match="does not fit"):
        client.far_view(fact_table, query)
    assert client.connection.region.loaded_pipeline is None
    assert client.plan(fact_table, query, "auto").chosen == "ship"
    for _ in range(3):
        result, elapsed = client.far_view_planned(fact_table, query,
                                                  placement="auto")
        assert result.explain.chosen == "ship"
        assert elapsed == pytest.approx(ship_ns, rel=1e-12)
        assert sha(canonical_result_bytes(result)) == sha(
            serial_join_model(fact, dim))


def test_auto_ships_when_the_dynamic_region_fails():
    """With a cheap reconfiguration auto's first plan offloads; the
    region has failed, so the offload raises and auto ships instead (a
    raw read needs no region), exactly."""
    from repro.core.faults import FaultInjector

    config = FarviewConfig(memory=TEST_CONFIG.memory,
                           operator_stack=OperatorStackConfig(
                               reconfiguration_ns=1.0))
    dim = make_dim(list(range(40)), seed=3)
    fact = make_fact(list(range(60)) * 40, seed=4)
    client = single_client(config)
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    query, stats = make_query(dim_table, cut=10), PlanStats(selectivity=0.2)
    assert client.plan(fact_table, query, "auto", stats).chosen == "offload"
    FaultInjector(client.node).fail_region(0, 0)
    result, _ = client.far_view_planned(fact_table, query, placement="auto",
                                        stats=stats)
    assert result.explain.chosen == "ship"
    # An auto call that fell back is recorded as one.
    assert result.explain.requested == "auto"
    assert sha(canonical_result_bytes(result)) == sha(
        serial_join_model(fact, dim, cut=10))


def test_sql_join_with_group_by_runs_end_to_end():
    """GROUP BY over a join must not have its aggregate inputs dropped
    by a select-list projection (probe-column grouping is supported)."""
    fact = make_fact([0, 1, 0, 2, 1, 0], seed=32)
    dim = make_dim([0, 1], seed=33)
    client = single_client()
    upload(client, "dim", DIM_SCHEMA, dim)
    upload(client, "fact", FACT_SCHEMA, fact)
    result, _ = client.sql(
        "SELECT a, COUNT(*) AS n, SUM(c) AS total FROM fact "
        "JOIN dim ON fact.a = dim.id GROUP BY a")
    rows = result.rows()
    # Keys 0 and 1 match the dim; key 2 is dropped by the inner join.
    assert rows["a"].tolist() == [0, 1]
    assert rows["n"].tolist() == [3, 2]
    matched = fact[fact["a"] < 2]
    assert rows["total"].sum() == matched["c"].sum()


def test_software_join_rejects_key_type_mismatch_like_the_operator():
    """The ship path must refuse mismatched key types, not silently
    cast — placement must never change an error into a wrong answer."""
    from repro.baselines.sw_ops import software_join

    fact = make_fact([1, 2], seed=34)
    dim = make_dim([1, 2], seed=35)
    with pytest.raises(OperatorError, match="mismatch"):
        software_join(fact, FACT_SCHEMA, dim, DIM_SCHEMA,
                      "rate", "a", ["zone"])   # float64 build key vs int64


def test_duplicate_build_key_rejected_end_to_end():
    fact = make_fact([1, 2], seed=16)
    dim = make_dim([5, 6], seed=17)
    dim["id"] = [5, 5]
    client = single_client()
    dim_table = upload(client, "dim", DIM_SCHEMA, dim)
    fact_table = upload(client, "fact", FACT_SCHEMA, fact)
    with pytest.raises(OperatorError, match="unique"):
        client.far_view(fact_table, make_query(dim_table))


# ---------------------------------------------------------------------------
# SQL cells: join statements whose columns live on the build side, every
# placement x topology == the serial SQL model (and a numpy oracle)
# ---------------------------------------------------------------------------

CELL_FACT = Schema([Column("k", "int64"), Column("v", "float64")])
CELL_DIM = Schema([Column("id", "int64"), Column("v", "float64"),
                   Column("zone", "int64")])
_CELL_ON = "FROM fact JOIN dim ON fact.k = dim.id"


def _cell_tables():
    rng = np.random.default_rng(44)
    fact = CELL_FACT.empty(200)
    fact["k"] = rng.integers(0, 24, 200)            # keys 16..23 never match
    fact["v"] = rng.integers(0, 128, 200) / 128.0   # dyadic: sums are exact
    dim = CELL_DIM.empty(16)
    dim["id"] = np.arange(16)
    dim["v"] = ((np.arange(16) * 7) % 16) / 16.0    # unrelated to fact.v
    dim["zone"] = np.arange(16) % 4
    return fact, dim


def _cell_matches(fact, dim):
    """(fact row, its dim row) for every fact row the inner join keeps."""
    by_id = {int(d["id"]): d for d in dim}
    return [(f, by_id[int(f["k"])]) for f in fact if int(f["k"]) in by_id]


def _cell_groups(pairs, value):
    groups: dict[int, list[float]] = {}
    for f, d in pairs:
        groups.setdefault(int(d["zone"]), []).append(value(f, d))
    return groups


#: name -> (statement, numpy oracle over (fact, dim) giving sorted tuples).
#: Each was wrong, or an untyped error, on the single-chain lowering that
#: stripped table qualifiers and validated against the probe schema only.
SQL_CELLS = {
    # ``v`` is in both tables: the qualifier must pick the build side.
    "build-filter-shared-name": (
        f"SELECT k, zone {_CELL_ON} WHERE dim.v < 0.5",
        lambda fact, dim: sorted(
            (int(f["k"]), int(d["zone"]))
            for f, d in _cell_matches(fact, dim) if d["v"] < 0.5)),
    # ``zone`` is only in the build table: filter the build read.
    "build-filter-build-only-name": (
        f"SELECT k, zone {_CELL_ON} WHERE dim.zone < 2",
        lambda fact, dim: sorted(
            (int(f["k"]), int(d["zone"]))
            for f, d in _cell_matches(fact, dim) if d["zone"] < 2)),
    # A qualified aggregate input must read the build side's ``v``.
    "aggregate-over-build-column": (
        f"SELECT zone, COUNT(*) AS n, MAX(dim.v) AS m {_CELL_ON} "
        f"GROUP BY zone",
        lambda fact, dim: sorted(
            (zone, len(vs), max(vs)) for zone, vs in _cell_groups(
                _cell_matches(fact, dim), lambda f, d: float(d["v"])
            ).items())),
    # An un-aliased build column whose name the fact table also has is
    # ``build_v`` wherever its join runs (it was ``v`` on a client arm).
    "select-shared-name": (
        f"SELECT k, dim.v {_CELL_ON}",
        lambda fact, dim: sorted(
            (int(f["k"]), float(d["v"]))
            for f, d in _cell_matches(fact, dim))),
    # GROUP BY a payload column: post-join stages see the post-join schema.
    "group-by-build-column": (
        f"SELECT zone, SUM(v) AS s {_CELL_ON} GROUP BY zone",
        lambda fact, dim: sorted(
            (zone, pytest.approx(sum(vs))) for zone, vs in _cell_groups(
                _cell_matches(fact, dim), lambda f, d: float(f["v"])
            ).items())),
}


def _cell_client(num_nodes: int, fact, dim):
    if num_nodes == 1:
        client = single_client()
        upload(client, "dim", CELL_DIM, dim)
        upload(client, "fact", CELL_FACT, fact)
        return client
    client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                          TEST_CONFIG))
    client.open_connection()
    client.create_table("dim", CELL_DIM, dim)
    client.create_table("fact", CELL_FACT, fact)
    return client


@pytest.mark.parametrize("num_nodes", [1, 2])
@pytest.mark.parametrize("placement", ["offload", "ship", "auto"])
@pytest.mark.parametrize("cell", SQL_CELLS)
def test_sql_join_cells_match_model(cell, placement, num_nodes):
    from repro.baselines.sql_model import execute_model

    statement, oracle = SQL_CELLS[cell]
    fact, dim = _cell_tables()
    client = _cell_client(num_nodes, fact, dim)
    result, _ = client.sql(statement, placement=placement)
    schema, rows = execute_model(
        statement, {"fact": (CELL_FACT, fact), "dim": (CELL_DIM, dim)})
    assert result.schema == schema
    assert sha(canonical_result_bytes(result)) == sha(schema.to_bytes(rows))
    assert sorted(result.rows().tolist()) == oracle(fact, dim)


def _and_where(statement: str, conjunct: str) -> str:
    """``statement`` with one more top-level WHERE conjunct."""
    if " WHERE " in statement:
        return statement.replace(" WHERE ", f" WHERE {conjunct} AND ", 1)
    head, group, tail = statement.partition(" GROUP BY ")
    return f"{head} WHERE {conjunct}{group}{tail}"


@pytest.mark.parametrize("num_nodes", [1, 2])
@pytest.mark.parametrize("placement", ["offload", "ship", "auto"])
@pytest.mark.parametrize("cell", SQL_CELLS)
def test_an_always_true_conjunct_changes_nothing(cell, placement, num_nodes):
    """Metamorphic: ``<table>.<column> >= <its minimum>`` on either FROM
    table moves that table's join between the head's on-chip hash and a
    client arm over a pruned scan — which must change neither
    acceptance, nor the output names, nor one result byte."""
    statement, _oracle = SQL_CELLS[cell]
    fact, dim = _cell_tables()
    baseline, _ = _cell_client(num_nodes, fact, dim).sql(
        statement, placement=placement)
    for conjunct in (f"fact.k >= {fact['k'].min()}",
                     f"dim.id >= {dim['id'].min()}"):
        variant, _ = _cell_client(num_nodes, fact, dim).sql(
            _and_where(statement, conjunct), placement=placement)
        assert variant.schema.names == baseline.schema.names, conjunct
        assert (canonical_result_bytes(variant)
                == canonical_result_bytes(baseline)), conjunct


SNAP_FACT = Schema([Column("k", "int64"), Column("j", "int64"),
                    Column("v", "int64")])
SNAP_D = Schema([Column("id", "int64"), Column("w", "int64")])
SNAP_E = Schema([Column("eid", "int64"), Column("x", "int64")])
_SNAP_ON = "FROM f JOIN d ON f.k = d.id"

#: name -> (statement, the table a writer updates mid-statement).
SNAPSHOT_CELLS = {
    # The unfiltered first join runs in the head: one read, one epoch.
    "unfiltered-control": (f"SELECT f.v, d.w {_SNAP_ON}", "d"),
    # The always-true filter makes ``d`` a client arm over its own scan.
    "filtered-arm": (f"SELECT f.v, d.w {_SNAP_ON} WHERE d.w >= 0", "d"),
    # A second join is a raw-read arm after the head.
    "raw-later-arm": (f"SELECT f.v, d.w, e.x {_SNAP_ON} "
                      f"JOIN e ON f.j = e.eid", "e"),
}


def _snapshot_client():
    client = single_client()
    fact = SNAP_FACT.empty(48)
    fact["k"] = np.arange(48) % 12
    fact["j"] = np.arange(48) % 5
    fact["v"] = np.arange(48)
    d = SNAP_D.empty(12)
    d["id"], d["w"] = np.arange(12), np.arange(12) * 3
    e = SNAP_E.empty(5)
    e["eid"], e["x"] = np.arange(5), np.arange(5) * 7
    for name, schema, rows in (("f", SNAP_FACT, fact), ("d", SNAP_D, d),
                               ("e", SNAP_E, e)):
        client.create_versioned_table(name, schema, rows)
    return client


@pytest.mark.parametrize("placement", ["offload", "ship", "auto"])
@pytest.mark.parametrize("cell", SNAPSHOT_CELLS)
def test_a_statement_reads_one_snapshot(cell, placement):
    """A writer commits to a joined table 500 ns into the statement:
    every read of the statement — the head, a filtered arm's own scan, a
    raw arm — sees the epoch current at its start, whichever physical
    arm the cut picked, so the bytes equal the writer-free run's; and
    every pin the statement took is released."""
    statement, target = SNAPSHOT_CELLS[cell]
    quiet, _ = _snapshot_client().sql(statement, placement=placement)
    client = _snapshot_client()
    written = client.catalog.lookup(target)
    column = {"d": "w", "e": "x"}[target]

    def writer():
        yield client.sim.timeout(500)
        yield from client.update_where_proc(written, None, {column: 1000})

    proc = client.sim.process(writer())
    result, _ = client.sql(statement, placement=placement)
    assert proc.triggered and written.epoch == 1, "the writer never ran"
    assert canonical_result_bytes(result) == canonical_result_bytes(quiet)
    for name in ("f", "d", "e"):
        assert client.catalog.lookup(name).shards[0].chain.active_pins == 0


# ---------------------------------------------------------------------------
# Strategy-equivalence matrix: broadcast / colocated / shuffle / ship /
# auto x pool size x partitioning scheme, every cell == the serial model
# ---------------------------------------------------------------------------

from repro.common.errors import QueryError  # noqa: E402
from repro.core.api import QueryResult  # noqa: E402
from repro.core.cluster import (colocated_compatible,  # noqa: E402
                                join_strategies)
from repro.core.partition import (PartitionSpec,  # noqa: E402
                                  partition_indices)

MATRIX_STRATEGIES = ("broadcast", "colocated", "shuffle", "ship", "auto")
MATRIX_NODES = (1, 2, 4)
MATRIX_SCHEMES = ("chunk", "hash", "range")


def _matrix_specs(scheme: str) -> tuple[PartitionSpec, PartitionSpec]:
    """Fact + build partition specs for one scheme row of the matrix.

    The build side is hash-partitioned on its key in the ``hash`` row so
    the co-located strategy becomes feasible there — and only there.
    """
    if scheme == "chunk":
        return PartitionSpec(), PartitionSpec()
    if scheme == "hash":
        return (PartitionSpec("hash", key="a"),
                PartitionSpec("hash", key="id"))
    return PartitionSpec("range", key="a"), PartitionSpec()


def _matrix_expected(fact, dim, fact_spec, num_nodes, cut=None) -> bytes:
    """The serial model over the fact rows in shard-concatenation order
    (the cluster merge's row order under any partitioning scheme)."""
    order = np.concatenate(
        partition_indices(fact, FACT_SCHEMA, fact_spec, num_nodes))
    return serial_join_model(fact[order], dim, cut)


def _matrix_cluster(num_nodes, fact, dim, fact_spec, dim_spec):
    cc = ClusterClient(FarviewCluster(Simulator(), num_nodes, TEST_CONFIG))
    cc.open_connection()
    dim_sharded = cc.create_table("dim", DIM_SCHEMA, dim,
                                  partition=dim_spec)
    fact_sharded = cc.create_table("fact", FACT_SCHEMA, fact,
                                   partition=fact_spec)
    return cc, fact_sharded, dim_sharded


def test_strategy_equivalence_matrix(assert_uniform_result):
    """Every (strategy x pool size x scheme) cell produces sha256 bytes
    identical to the serial model; infeasible explicit strategies raise
    the typed :class:`QueryError` instead of silently running."""
    fact = make_fact(list(range(60)) * 2, seed=40)
    dim = make_dim(list(range(48)), seed=41)
    cut = 50
    for num_nodes in MATRIX_NODES:
        for scheme in MATRIX_SCHEMES:
            fact_spec, dim_spec = _matrix_specs(scheme)
            expected = sha(_matrix_expected(fact, dim, fact_spec,
                                            num_nodes, cut))
            for strategy in MATRIX_STRATEGIES:
                cc, fs, ds = _matrix_cluster(num_nodes, fact, dim,
                                             fact_spec, dim_spec)
                query = make_query(ds, cut)
                cell = f"{strategy} x N={num_nodes} x {scheme}"
                if strategy == "ship":
                    result, elapsed = cc.far_view_planned(
                        fs, query, placement="ship",
                        stats=PlanStats(selectivity=0.9,
                                        join_match_ratio=0.8))
                    assert_uniform_result(result, elapsed)
                    assert sha(canonical_result_bytes(result)) == expected, \
                        f"{cell} diverged"
                    continue
                requested = None if strategy == "auto" else strategy
                if (requested is not None and requested not in
                        join_strategies(fs, join_arm(query.join))):
                    with pytest.raises(QueryError, match="infeasible"):
                        cc.far_view(fs, query, join_strategy=requested)
                    continue
                result, elapsed = cc.far_view(fs, query,
                                              join_strategy=requested)
                assert_uniform_result(result, elapsed)
                assert sha(result.data) == expected, f"{cell} diverged"
                assert result.join_strategy in ("broadcast", "colocated",
                                                "shuffle")
                if result.join_strategy == "colocated":
                    assert cc.replica_bytes_moved == 0, \
                        f"{cell} moved replica bytes while co-located"


def test_matrix_versioned_probe_cells(assert_uniform_result):
    """The versioned-probe column of the matrix: a delta chain on the
    fact side still merges sha-identical (broadcast-only by design)."""
    fact = make_fact(list(range(40)) * 2, seed=42)
    dim = make_dim(list(range(32)), seed=43)
    expected = sha(serial_join_model(fact, dim))
    for num_nodes in MATRIX_NODES:
        cc = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                          TEST_CONFIG))
        cc.open_connection()
        ds = cc.create_table("dim", DIM_SCHEMA, dim)
        head = len(fact) // 2
        vfact = cc.create_versioned_table("vfact", FACT_SCHEMA, fact[:head])
        cc.insert(vfact, fact[head:])
        result, elapsed = cc.far_view(vfact, make_query(ds))
        assert_uniform_result(result, elapsed)
        assert sha(result.data) == expected, \
            f"versioned probe x N={num_nodes} diverged"
        # Partitioned strategies are typed-refused on versioned scans.
        with pytest.raises(QueryError, match="broadcast"):
            cc.far_view(vfact, make_query(ds), join_strategy="shuffle")


def test_a_build_side_without_deltas_joins_pool_wide(assert_uniform_result):
    """Deltas at the build's epoch, not how it was created, decide
    whether it is copied: a written dimension with no delta left (a
    no-op write, then a compaction of a real one) is broadcast to a
    2-node pool, sha-identical to the serial model; with a delta it is
    probed in place, which a pool refuses typed."""
    fact = make_fact(list(range(40)) * 2, seed=44)
    dim = make_dim(list(range(32)), seed=45)
    cc = ClusterClient(FarviewCluster(Simulator(), 2, TEST_CONFIG))
    cc.open_connection()
    fs = cc.create_table("fact", FACT_SCHEMA, fact)
    ds = cc.create_table("dim", DIM_SCHEMA, dim)
    cc.update_where(ds, Compare("id", ">", 10 ** 6), {"rate": 1.0})
    assert ds.epoch == 1 and not ds.has_deltas(ds.epoch)
    result, elapsed = cc.far_view(fs, make_query(ds))
    assert_uniform_result(result, elapsed)
    assert result.join_strategy == "broadcast"
    assert sha(result.data) == sha(serial_join_model(fact, dim))
    cc.delete_where(ds, Compare("id", ">=", 28))
    with pytest.raises(QueryError, match="has deltas"):
        cc.far_view(fs, make_query(ds))
    cc.compact(ds)
    result, _ = cc.far_view(fs, make_query(ds))
    assert sha(result.data) == sha(serial_join_model(fact, dim[:28]))


@given(fact_hash=st.booleans(), dim_hash=st.booleans(),
       fact_key=st.sampled_from(["a", "c"]),
       dim_key=st.sampled_from(["id", "zone"]),
       num_nodes=st.sampled_from([1, 2, 4]))
@settings(max_examples=20, deadline=None)
def test_planner_picks_colocated_iff_cocompatible(fact_hash, dim_hash,
                                                  fact_key, dim_key,
                                                  num_nodes):
    """The planner chooses ``colocated`` **iff** both sides are
    hash-partitioned on the join key with identical shard counts."""
    fact = make_fact(list(range(24)), seed=44)
    dim = make_dim(list(range(24)), seed=45)
    fact_spec = (PartitionSpec("hash", key=fact_key) if fact_hash
                 else PartitionSpec())
    dim_spec = (PartitionSpec("hash", key=dim_key) if dim_hash
                else PartitionSpec())
    cc, fs, ds = _matrix_cluster(num_nodes, fact, dim, fact_spec, dim_spec)
    query = make_query(ds)
    should_colocate = (fact_hash and dim_hash
                      and fact_key == "a" and dim_key == "id")
    assert colocated_compatible(fs, ds, "a", "id") == should_colocate
    result, _ = cc.far_view(fs, query)
    # A one-shard table's answer is its shard's own result: no gather.
    assert type(result) is QueryResult
    assert (len(result.parts) > 0) == (len(fs.shards) > 1)
    if should_colocate:
        assert result.join_strategy == "colocated"
        assert cc.replica_bytes_moved == 0
    else:
        assert result.join_strategy != "colocated"
    expected = _matrix_expected(fact, dim, fact_spec, num_nodes)
    assert sha(result.data) == sha(expected)


def test_colocated_requires_identical_shard_counts():
    """Shard-count mismatch (tables from differently sized pools) breaks
    co-location even when both sides hash on the join key."""
    fact = make_fact(list(range(16)), seed=46)
    dim = make_dim(list(range(16)), seed=47)
    _cc2, fs2, _ds2 = _matrix_cluster(
        2, fact, dim, PartitionSpec("hash", key="a"),
        PartitionSpec("hash", key="id"))
    _cc4, _fs4, ds4 = _matrix_cluster(
        4, fact, dim, PartitionSpec("hash", key="a"),
        PartitionSpec("hash", key="id"))
    assert fs2.num_partitions != ds4.num_partitions
    assert not colocated_compatible(fs2, ds4, "a", "id")


def test_plan_charges_an_unplaced_shuffle_against_the_offload():
    """On a 4-node pool with the fact hash-partitioned on its key and the
    dimension chunk-partitioned, ``plan`` resolves ``shuffle`` and
    charges the build's movement to its offload candidate: the same
    plan costs less once a join has placed the build."""
    fact = make_fact(list(range(64)) * 8, seed=48)
    dim = make_dim(list(range(64)), seed=49)
    cc, fs, ds = _matrix_cluster(4, fact, dim,
                                 PartitionSpec("hash", key="a"),
                                 PartitionSpec())
    query = make_query(ds)

    def offload_ns():
        plan = cc.plan(fs, query, "offload")
        assert plan.join_strategy == "shuffle"
        (candidate,) = plan.candidates
        return candidate.total_ns

    cold = offload_ns()
    result, _ = cc.far_view(fs, query)
    assert result.join_strategy == "shuffle" and cc.replica_bytes_moved > 0
    assert offload_ns() < cold
    expected = _matrix_expected(fact, dim, PartitionSpec("hash", key="a"), 4)
    assert sha(result.data) == sha(expected)


def test_colocated_shards_facing_an_empty_build_partition_answer_locally():
    """A 2-row dimension hashed on ``id`` has shards on nodes 0 and 2
    only, while a 512-row fact with keys 0-15 has shards on all four:
    under a co-located join the two fact shards facing an empty build
    partition are answered client-side, with no request, and the merge
    is the serial model's rows."""
    from repro.experiments import fig19_shuffle as fig19

    fact = fig19.make_fact(512, key_range=16)
    dim = fig19.make_dim(2)
    cc = ClusterClient(FarviewCluster(Simulator(), 4, TEST_CONFIG))
    cc.open_connection()
    ds = cc.create_table("dim", fig19.DIM_SCHEMA, dim,
                         partition=PartitionSpec("hash", key="id"))
    fs = cc.create_table("fact", fig19.FACT_SCHEMA, fact,
                         partition=PartitionSpec("hash", key="key"))
    assert [s.node_index for s in ds.shards] == [0, 2]
    assert [s.node_index for s in fs.shards] == [0, 1, 2, 3]
    result, _ = cc.far_view(fs, fig19.join_query(ds))
    assert result.join_strategy == "colocated"
    empty = [part for part in result.parts
             if part.report.signature == "empty-partition"]
    assert len(empty) == 2
    assert all(part.bytes_shipped == 0 for part in empty)
    assert fig19.canonical_sha(result.schema, result.rows()) == \
        fig19.canonical_sha(fig19.JOINED_SCHEMA, fig19.serial_model(fact, dim))


# ---------------------------------------------------------------------------
# A catalog binds a SELECT once per catalog state
# ---------------------------------------------------------------------------

from repro.baselines.sql_model import execute_model  # noqa: E402
from repro.core.compile import bind_select, parse_sql  # noqa: E402


def test_a_recreated_table_binds_the_same_join_text_again():
    """``dim`` dropped and created again under the same name, first
    chunk-partitioned, then hashed on the join key: the same join text
    binds against each new handle, co-locates exactly when both sides
    hash on the key, and matches the serial model every time."""
    fact = make_fact(list(range(40)) * 2, seed=48)
    dim = make_dim(list(range(32)), seed=49)
    fact_spec = PartitionSpec("hash", key="a")
    statement = ("SELECT a, b, c, rate, zone FROM fact "
                 "JOIN dim ON fact.a = dim.id")
    cc, _fs, ds = _matrix_cluster(4, fact, dim, fact_spec, PartitionSpec())
    expected = sha(_matrix_expected(fact, dim, fact_spec, 4))
    model_schema, model_rows = execute_model(
        statement, {"fact": (FACT_SCHEMA, fact), "dim": (DIM_SCHEMA, dim)})
    for dim_spec in (PartitionSpec(), PartitionSpec("hash", key="id")):
        if dim_spec != ds.partition:
            cc.drop_table("dim")
            ds = cc.create_table("dim", DIM_SCHEMA, dim, partition=dim_spec)
        result, _ = cc.sql(statement)
        assert cc.catalog.prepare(statement)[1].query.join.build_table is ds
        assert (result.join_strategy == "colocated") == (
            dim_spec.scheme == "hash")
        assert sha(result.data) == expected
        assert result.schema == model_schema
        assert sorted(result.rows().tolist()) == sorted(model_rows.tolist())


#: A statement with a head, a client arm over a filtered build and a
#: HAVING step after its grouping: every part of a bound SELECT.
_PREPARED_STATEMENT = (f"SELECT zone, SUM(fact.v) AS s, COUNT(*) AS n "
                       f"{_CELL_ON} WHERE dim.zone < 3 AND k < 20 "
                       f"GROUP BY zone HAVING COUNT(*) > 2")


def test_a_prepared_select_is_never_mutated_by_its_runs():
    """One text under ``offload``, ``ship`` and ``auto``, then as a view:
    after each use the kept :class:`BoundSelect` still equals a fresh
    bind of the text, and each result is byte-identical to a twin
    client's that binds the text afresh for every call."""
    fact, dim = _cell_tables()
    client, twin = (_cell_client(2, fact, dim) for _ in range(2))
    _parsed, kept = client.catalog.prepare(_PREPARED_STATEMENT)
    assert kept.tail and any(op.kernel == "join" for op in kept.tail)

    def fresh():
        return bind_select(parse_sql(_PREPARED_STATEMENT), client.catalog)

    for placement in ("offload", "ship", "auto"):
        result, elapsed = client.sql(_PREPARED_STATEMENT, placement=placement)
        assert client.catalog.prepare(_PREPARED_STATEMENT)[1] is kept
        assert kept == fresh()
        twin.catalog._prepared.clear()
        alone, alone_ns = twin.sql(_PREPARED_STATEMENT, placement=placement)
        assert result.data == alone.data and elapsed == alone_ns
    view, _ = client.create_view(_PREPARED_STATEMENT, name="kept")
    twin.catalog._prepared.clear()
    alone, _ = twin.create_view(_PREPARED_STATEMENT, name="kept")
    assert view.bound is kept and kept == fresh()
    assert view.sha256() == alone.sha256()
