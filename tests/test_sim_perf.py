"""Regression guards for the event-loop fast path and zero-copy data plane.

Budgets are deliberately generous (events exact-ish, wall clock ~10x
headroom) — they exist to catch order-of-magnitude regressions such as the
per-callback heap scheduling or per-burst byte copies this PR removed, not
to flake on slow CI machines.
"""

import cProfile
import pstats
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.sw_ops import software_distinct, software_groupby
from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.records import (Column, Schema, default_schema,
                                  first_occurrence, key_image, wide_schema)
from repro.common.units import MB
from repro.core.api import ClusterClient, FarviewClient
from repro.core.cluster import FarviewCluster, merge_group_rows
from repro.core.node import FarviewNode
from repro.core.query import select_distinct, select_star
from repro.core.table import FTable
from repro.core.views import GroupStage
from repro.core.zset import ZSet
from repro.experiments.fig18_minitpch import QUERIES, make_tables
from repro.memory.mmu import DEFAULT_BURST_BYTES
from repro.operators.aggregate import (AggregateSpec, accumulator_rows,
                                       decompose_partials)
from repro.operators.base import OperatorPipeline
from repro.operators.distinct import DistinctOperator
from repro.operators.groupby import GroupByOperator
from repro.operators.join import SmallTableJoinOperator
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import (distinct_workload, groupby_workload,
                                       make_rows, selection_workload)

KB = 1024


def _run_reference_workload():
    """Two concurrent DISTINCT clients over 256 KB tables (fig12-style)."""
    sim = Simulator()
    config = FarviewConfig(memory=MemoryConfig(channels=2,
                                               channel_capacity=16 * MB))
    node = FarviewNode(sim, config)
    clients, tables = [], []
    nrows = 256 * KB // 64
    for i in range(2):
        client = FarviewClient(node)
        client.open_connection()
        schema, rows = distinct_workload(nrows, 64, seed=i)
        table = FTable(f"T{i}", schema, nrows)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        clients.append(client)
        tables.append(table)
    query = select_distinct(["a"])
    for client, table in zip(clients, tables):
        client.far_view(table, query)  # deploy pipelines

    results = {}

    def run_one(client, table, tag):
        result = yield from client.far_view_proc(table, query)
        results[tag] = result

    events_before = sim.events_processed
    start_sim = sim.now
    start_wall = time.perf_counter()
    procs = [sim.process(run_one(c, t, i))
             for i, (c, t) in enumerate(zip(clients, tables))]
    sim.run()
    wall = time.perf_counter() - start_wall
    assert all(p.triggered for p in procs)
    for i in range(2):
        assert len(results[i].rows()) == 64
    return {
        "events": sim.events_processed - events_before,
        "sim_ns": sim.now - start_sim,
        "wall_s": wall,
        "digests": [results[i].data for i in range(2)],
    }


def test_event_count_budget():
    """The measured phase stays within an event budget (~10x headroom).

    At the fast-path commit the workload executes ~420 simulator
    callbacks; a regression to per-callback heap scheduling or per-tuple
    processing would blow straight through the budget.
    """
    stats = _run_reference_workload()
    assert 0 < stats["events"] < 5_000


def test_wall_clock_budget():
    """~20 ms at the fast-path commit; 100x slack for slow CI machines."""
    stats = _run_reference_workload()
    assert stats["wall_s"] < 2.0


def test_run_is_deterministic():
    """Same workload, same simulated time and byte-identical results."""
    a = _run_reference_workload()
    b = _run_reference_workload()
    assert a["sim_ns"] == b["sim_ns"]
    assert a["events"] == b["events"]
    assert a["digests"] == b["digests"]


def _calls_into(profile, package: str) -> int:
    """Python-level calls the profile recorded into files under
    ``package``."""
    return sum(nc for (filename, _, _), (_, nc, _, _, _)
               in pstats.Stats(profile).stats.items()
               if package in filename.replace("\\", "/"))


# -- a response packet is two loop callbacks, a burst a handful -------------------

def _one_mebibyte_table():
    """One warm client holding a 1 MiB selection table on a default node
    (1 KiB packets, 32 credits, 16 KiB bursts)."""
    sim = Simulator()
    node = FarviewNode(sim, FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=16 * MB)))
    client = FarviewClient(node, buffer_capacity=MB + KB)
    client.open_connection()
    workload = selection_workload(MB // 64, selectivity=0.5, seed=3)
    table = FTable("t", workload.schema, len(workload.rows))
    client.alloc_table_mem(table)
    return sim, client, table, workload


def _events_and_packets(sim, client, verb, *args):
    qp = client.connection.qp
    events, packets = sim.events_processed, qp.responses_received
    result = verb(*args)[0]
    return (sim.events_processed - events,
            qp.responses_received - packets, result)


def test_response_packet_callback_budget():
    """A packet's own loop callbacks are its two timed hops — granted the
    wire, landed — plus one immediate hop when it had to wait for a credit.

    1 MiB raw READ at 32 credits: DRAM outruns the wire, so nearly every
    packet queues for a credit: 3 callbacks a packet + ~7 a burst = 3.4 a
    packet (6.6 when each packet also resumed the producer, relayed its
    pipe event through a lambda and an arbiter ``done`` event, and sat in
    an ``AllOf`` at the end).  A selection at 50 % never exhausts the
    window: against the same scan shipping nothing, a packet adds its
    two callbacks (2.1 measured; 3.0 a packet all told, 8 packets sharing
    a burst's ~7 callbacks, which this budget leaves alone; 7.6 before).
    """
    sim, client, table, workload = _one_mebibyte_table()
    client.table_write(table, workload.rows)
    events, packets, image = _events_and_packets(
        sim, client, client.table_read, table)
    assert packets == MB // KB and len(image) == MB
    assert events <= 3.5 * packets

    nothing = select_star(Compare("a", "<", 0))
    half = select_star(workload.predicate)
    idle_events, idle_packets, _ = _events_and_packets(
        sim, client, client.far_view, table, nothing)
    events, packets, result = _events_and_packets(
        sim, client, client.far_view, table, half)
    assert idle_packets == 0 and packets == -(-result.num_rows * 64 // KB)
    assert 0.45 * MB < result.num_rows * 64 < 0.55 * MB
    assert events - idle_events <= 2.5 * packets
    assert events <= 3.5 * packets


def test_table_write_callbacks_are_per_burst():
    """Uploading 1 MiB prices its 1,024 packets onto the uplink and waits
    once for the last arrival; the loop's work is the 64 DRAM write bursts
    (71 callbacks, where an event and a heap entry per upload packet made
    it 1,352)."""
    sim, client, table, workload = _one_mebibyte_table()
    before = sim.events_processed
    client.table_write(table, workload.rows)
    bursts = MB // DEFAULT_BURST_BYTES
    assert 0 < sim.events_processed - before < 3 * bursts
    assert client.node.link.uplink.transfers == MB // KB


def test_raw_read_enters_the_client_per_burst():
    """The producer is resumed once per chunk it hands the streamer, so
    the client's ``yield from`` chain above ``serve_read`` is re-entered
    O(bursts) times during a 1 MiB READ (676 calls into ``core/api.py``;
    5,486 when every packet's credit resumed it)."""
    sim, client, table, workload = _one_mebibyte_table()
    client.table_write(table, workload.rows)
    profile = cProfile.Profile()
    profile.enable()
    client.table_read(table)
    profile.disable()
    bursts = MB // DEFAULT_BURST_BYTES
    assert 0 < _calls_into(profile, "/repro/core/api.py") < 20 * bursts


# -- the join stays array-resident ---------------------------------------------

def test_join_python_call_budget():
    """Build 16,384 keys, probe 65,536 rows in DRAM-burst batches: the
    Python-level calls into ``repro.operators`` are O(batches + build rows).

    Only the cuckoo insertion walks rows (a put and its probe per build
    row); hashing, lookup, key compare and gather are array passes per
    batch.  Per-row hashing or a per-match copy loop — 2.3M calls here
    before the join went array-resident — lands 10x over the budget.
    """
    build_rows, probe_rows = 16_384, 65_536
    dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
    dim = dim_schema.empty(build_rows)
    dim["id"] = np.arange(build_rows) * 3
    dim["rate"] = np.arange(build_rows) * 0.5
    schema = default_schema()
    fact = schema.empty(probe_rows)
    fact["a"] = np.arange(probe_rows)        # ids are 0, 3, ..., 49149
    image = memoryview(schema.to_bytes(fact))
    bursts = [image[off:off + DEFAULT_BURST_BYTES]
              for off in range(0, len(image), DEFAULT_BURST_BYTES)]
    op = SmallTableJoinOperator(dim_schema, "id", "a", ["rate"])
    pipeline = OperatorPipeline("join", schema, [op])

    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    op.load_build(dim)
    out = b"".join(pipeline.process_chunk(burst) for burst in bursts)
    profile.disable()
    wall = time.perf_counter() - start

    joined = pipeline.output_schema.from_bytes(out)
    keys = fact["a"]
    expected = keys[(keys % 3 == 0) & (keys < 3 * build_rows)]
    np.testing.assert_array_equal(joined["a"], expected)
    np.testing.assert_array_equal(joined["rate"], (expected // 3) * 0.5)
    assert (op.build_rows_loaded, op.rows_in, op.rows_out,
            op.probe_matches) == (build_rows, probe_rows, len(expected),
                                  len(expected))
    calls = _calls_into(profile, "/repro/operators/")
    assert 0 < calls < 8 * build_rows + 200 * len(bursts)
    assert wall < 5.0   # ~0.1 s under the profiler; slack for slow CI


# -- the grouping operators stay one array transform per burst -----------------

def test_grouping_operator_python_call_budget():
    """65,536 rows in DRAM-burst batches through a DISTINCT and a GROUP BY
    pipeline, at 64 keys and at all-distinct keys: the Python-level calls
    into ``repro.operators`` are O(batches + distinct keys).

    Only a key new to the operator walks the cuckoo tables (a put and its
    probe); grouping, accumulation and the LRU register are array passes
    per burst: ~2,460 calls each at 64 keys, where the per-tuple loops
    made 72,327 (DISTINCT, one register probe a row) and 203,916 (GROUP
    BY, three calls a row).  At all-distinct keys the default tables fill
    up: DISTINCT's last rows run on its per-row path (three calls a row,
    as every row of the old loop did) and GROUP BY spills groups, both
    inside the per-key term; the old GROUP BY made nine calls a key.
    """
    nrows = 65_536
    schema = default_schema()
    for distinct in (64, nrows):
        rows = schema.empty(nrows)
        rows["a"] = (np.arange(nrows) * 7) % distinct
        rows["b"] = (np.arange(nrows) % 100) * 0.25
        image = memoryview(schema.to_bytes(rows))
        bursts = [image[off:off + DEFAULT_BURST_BYTES]
                  for off in range(0, len(image), DEFAULT_BURST_BYTES)]
        specs = [AggregateSpec("count", "*"), AggregateSpec("sum", "b"),
                 AggregateSpec("min", "b")]
        expected = software_groupby(rows, schema, ["a"], specs).rows
        for op in (DistinctOperator(["a"]), GroupByOperator(["a"], specs)):
            pipeline = OperatorPipeline(op.name, schema, [op])
            profile = cProfile.Profile()
            profile.enable()
            out = b"".join([pipeline.process_chunk(burst)
                            for burst in bursts] + [pipeline.flush()])
            spilled = (op.drain_overflow_groups() if op.name == "groupby"
                       else op.drain_overflow_keys())
            profile.disable()
            got = pipeline.output_schema.from_bytes(out)
            if op.name == "groupby":
                got = np.concatenate([got, accumulator_rows(
                    pipeline.output_schema, ["a"], specs, spilled)])
                got = got[np.argsort(got["a"])]
                assert (got.tobytes()
                        == expected[np.argsort(expected["a"])].tobytes())
            else:
                np.testing.assert_array_equal(got["a"], rows["a"][:distinct])
            assert bool(spilled) == (distinct == nrows)
            calls = _calls_into(profile, "/repro/operators/")
            assert 0 < calls < 3 * distinct + 30 * len(bursts), (
                op.name, distinct, calls)


# -- host-side grouping stays one array transform ------------------------------

def test_host_grouping_python_call_budget():
    """A shipped GROUP BY + DISTINCT over 65,536 rows and a 4-shard group
    merge make O(columns) Python-level calls into ``repro``, not O(rows):
    the hand-rolled map and per-row accumulators made 4+ calls per row
    into ``repro.baselines`` alone."""
    schema, rows = groupby_workload(65_536, 1_000, seed=5)
    specs = [AggregateSpec("count", "*"), AggregateSpec("sum", "b"),
             AggregateSpec("min", "c"), AggregateSpec("avg", "c")]
    shard_specs, plans = decompose_partials(specs)
    profile = cProfile.Profile()
    profile.enable()
    grouped = software_groupby(rows, schema, ["a"], specs)
    distinct = software_distinct(rows, schema, ["a"])
    partials = np.concatenate([
        software_groupby(chunk, schema, ["a"], shard_specs).rows
        for chunk in np.array_split(rows, 4)])
    merged = merge_group_rows(partials, schema, ["a"], shard_specs, plans)
    profile.disable()
    assert grouped.num_groups == len(distinct.rows) == len(merged) == 1_000
    for name in ("a", "count_star", "min_c", "avg_c"):
        np.testing.assert_array_equal(merged[name], grouped.rows[name])
    np.testing.assert_allclose(merged["sum_b"], grouped.rows["sum_b"])
    assert 0 < _calls_into(profile, "/repro/") < 400


# -- a view refresh is array transforms over the delta -------------------------

def _commit(commits):
    for commit in commits:
        commit()


def _group_stage(members: int, groups: int):
    """A ``GroupStage`` holding ``members`` rows in ``groups`` groups."""
    schema = Schema([Column("g", "int64"), Column("k", "int64"),
                     Column("v", "float64")])
    rows = schema.empty(members)
    rows["g"] = np.arange(members) % groups
    rows["k"] = np.arange(members)
    rows["v"] = (np.arange(members) % 100) * 0.25
    stage = GroupStage(schema, ("g",), (
        AggregateSpec("count", "*"), AggregateSpec("sum", "v"),
        AggregateSpec("min", "k"), AggregateSpec("avg", "v")))
    commits: list = []
    assert stage.apply(ZSet.from_rows(schema, rows),
                       commits).entry_count == groups
    _commit(commits)
    return schema, rows, stage


def test_group_stage_refold_python_call_budget():
    """One 1-row delta into a ``GroupStage`` holding two groups of 4,096
    members retracts the touched group's cached row and re-folds it once,
    in O(columns) Python-level calls into ``repro`` — the per-member fold
    the stage used to own made one generator step per member per column
    (8,230 calls here), and the dict stage folded the group twice."""
    schema, rows, stage = _group_stage(8_192, 2)
    one = schema.empty(1)
    one["g"], one["k"], one["v"] = 1, 8_192, 2.5
    commits: list = []
    profile = cProfile.Profile()
    profile.enable()
    out = stage.apply(ZSet.from_rows(schema, one), commits)
    _commit(commits)
    profile.disable()
    assert sorted(out.weights.tolist()) == [-1, 1]
    new = out.rows[out.weights == 1]
    assert (new["count_star"][0], new["min_k"][0]) == (4_097, 1)
    assert new["sum_v"][0] == rows["v"][1::2].sum() + 2.5
    assert 0 < _calls_into(profile, "/repro/") < 150


def test_group_stage_folds_every_touched_group_in_one_kernel_call():
    """A 2,048-row delta touching all 8 groups of a 16,384-member stage
    makes exactly one ``software_groupby`` call, and O(1) Python-level
    calls into ``repro`` — not one per delta row, not two per group."""
    schema, rows, stage = _group_stage(16_384, 8)
    delta = ZSet.from_rows(
        schema, np.concatenate([rows[:1_024], rows[:1_024]]),
        np.repeat([-1, 1], 1_024))
    assert delta.is_empty                   # the same rows cancel ...
    moved = rows[:1_024].copy()
    moved["v"] += 0.25                      # ... an update does not
    delta = ZSet.from_rows(schema, np.concatenate([rows[:1_024], moved]),
                           np.repeat([-1, 1], 1_024))
    assert delta.entry_count == 2_048
    commits: list = []
    profile = cProfile.Profile()
    profile.enable()
    out = stage.apply(delta, commits)
    _commit(commits)
    profile.disable()
    assert out.entry_count == 16 and out.total_weight == 0
    folds = [nc for (_, _, name), (_, nc, _, _, _)
             in pstats.Stats(profile).stats.items()
             if name == "software_groupby"]
    assert folds == [1]
    assert 0 < _calls_into(profile, "/repro/") < 150
    assert stage.members.total_weight == 16_384


def test_linear_stages_python_call_budget():
    """A 4,096-row delta through a mask stage and two map stages: each
    runs one array kernel over the delta's rows and (a map stage) one
    consolidation of its output, so the Python-level calls into ``repro``
    are O(1) per stage, not O(rows) — no call per output row."""
    schema = Schema([Column("k", "int64"), Column("pad", "int64"),
                     Column("v", "float64")])
    rows = schema.empty(4_096)
    rows["k"] = np.arange(4_096)
    rows["v"] = np.arange(4_096) * 0.25
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    client.create_versioned_table("t", schema, rows[:4])
    view, _ = client.create_view(
        "SELECT k, v * 2.0 + 1.0 AS w FROM t WHERE v < 512.0")
    circuit = view.circuit
    assert ([type(stage).__name__ for stage in circuit.stages]
            == ["MaskStage", "MapStage", "MapStage"])
    delta = ZSet.from_rows(schema, rows)
    profile = cProfile.Profile()
    profile.enable()
    out = circuit.step({"t": delta})
    profile.disable()
    assert out.entry_count == out.total_weight == 2_048
    assert 0 < _calls_into(profile, "/repro/") < 50 * len(circuit.stages)


def test_tracker_batch_and_subscriber_push_python_call_budget():
    """A 4,096-row update segment through ``ChainTracker.apply_batch``
    (decoded once, the mirror indexed by row id) and the resulting
    8,192-entry delta through ``Subscription.push`` are O(1) Python-level
    calls into ``repro`` each — the dict mirror and the dict Z-set made
    three ``ZSet.add`` calls per row between them."""
    schema = Schema([Column("k", "int64"), Column("v", "float64")])
    rows = schema.empty(4_096)
    rows["k"] = np.arange(4_096)
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    vt = client.create_versioned_table("t", schema, rows)
    view, _ = client.create_view("SELECT k, v FROM t")
    sub = client.subscribe(view, auto=False)
    client.update_where(vt, Compare("k", ">=", 0), {"v": 0.5})
    engine = client.views
    (tracker,) = engine.trackers["t"]
    captured = []
    real_apply = engine.apply_refresh
    engine.apply_refresh = lambda reads, targets: captured.extend(reads)
    client.refresh_views()                  # performs the reads only
    engine.apply_refresh = real_apply
    ((_, segment, data),) = captured
    assert (segment.kind, segment.num_rows) == ("update", 4_096)

    commits: list = []
    profile = cProfile.Profile()
    profile.enable()
    delta = tracker.apply_batch([(segment, data)], commits)
    profile.disable()
    assert delta.entry_count == 8_192 and delta.total_weight == 0
    assert 0 < _calls_into(profile, "/repro/") < 60

    out = view.circuit.step({"t": delta})
    profile = cProfile.Profile()
    profile.enable()
    sub.push(out, view.epochs)
    profile.disable()
    assert sub.rows_pushed == 8_192 and sub.state.total_weight == 4_096
    assert 0 < _calls_into(profile, "/repro/") < 60
    assert sub.state.rows["v"].tolist() == [0.5] * 4_096


def test_full_row_dedup_keeps_up_with_the_loop_it_replaced():
    """16,384 x 512 B rows deduplicated on the whole row — the client's
    overflow fallback at ``scan_stream`` width — must not lose to the
    per-row ``set`` loop the kernel replaced (a sort-based ``np.unique``
    over 512 B void keys does, 2-5x)."""
    schema = wide_schema(512)
    rows = make_rows(schema, 16_384, seed=9)
    rows[1::2] = rows[0::2]

    def loop():
        seen, keep = set(), np.zeros(len(rows), dtype=bool)
        for i in range(len(rows)):
            image = rows[i].tobytes()
            if image not in seen:
                seen.add(image)
                keep[i] = True
        return rows[keep]

    def kernel():
        return rows[first_occurrence(key_image(rows, schema.names))[0]]

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - start)
        return out, best

    expected, loop_s = best_of(loop)
    got, kernel_s = best_of(kernel)
    assert len(got) == 8_192 and got.tobytes() == expected.tobytes()
    assert kernel_s < 1.5 * loop_s   # ~0.4x measured; slack for noise


def test_a_statement_enters_the_client_tail_once(monkeypatch):
    """Every fig18 statement x placement that leaves the client work — a
    split below its chain, or steps after its head — enters
    ``ClusterClient._run_tail`` exactly once, and none re-enters it: the
    head and each arm are landed inside the statement's own tail."""
    client = ClusterClient(FarviewCluster(Simulator(), 2))
    client.open_connection()
    for name, (schema, rows) in make_tables(256, 64, 16).items():
        client.create_table(name, schema, rows)
    run_tail = ClusterClient._run_tail
    entries, depth, deepest = 0, 0, 0

    def counted(self, *args, **kwargs):
        nonlocal entries, depth, deepest
        entries, depth = entries + 1, depth + 1
        deepest = max(deepest, depth)
        try:
            return run_tail(self, *args, **kwargs)
        finally:
            depth -= 1

    monkeypatch.setattr(ClusterClient, "_run_tail", counted)
    with_client_work = 0
    for _label, statement in QUERIES:
        for placement in ("offload", "ship", "auto"):
            result, _ = client.sql(statement, placement=placement)
            plan = result.explain
            with_client_work += plan is not None and (
                bool(plan.tail) or plan.split < len(plan.chain))
    assert with_client_work > 0
    assert (entries, deepest) == (with_client_work, 1)


def test_one_hash_one_probe_in_src():
    """The scalar hash twin and the unhashed-probe branches stay deleted
    — and so do the forked scan verb, the per-strategy build-placement
    caches, the second scatter, the four table-handle classes and second
    client body behind them, and the host's hand-rolled hash map with its
    five sibling key-grouping mechanisms, and the view circuit's own
    scalar stages, lowering helpers and eighth key packing, and the
    per-tuple GROUP BY's object mirror, queue and overflow dict (code and
    docs), and the view engine's dict Z-set and per-entry index loops, and
    the data plane's ``AllOf`` fan-ins and per-packet lambdas, and the
    binder's clause record with its un-stacking walk, and the second
    client tail with its second and third plan records, and the nested
    tail's head callables with their two raw readers, and the unused
    clock, combiner and request-stream helpers, and the buffer pool, the
    unused tallies and the per-figure entry points beside ``repro run`` —
    and the reference model binds nothing."""
    repo = Path(__file__).resolve().parent.parent
    for roots, names in (
            (("src",), ("hash_key(", "HashFamily", "slots is None",
                        "update_in_place")),
            (("src", "docs"), ("serve_farview_versioned", "_JoinReplica",
                               "_join_replicas", "_join_broadcasts",
                               "_shuffle_fragments", "_shuffle_jobs",
                               "_shuffle_empty", "_scatter_versioned_proc",
                               "plan_versioned", "VersionedShardedTable",
                               "VersionedShard", "TableShard", "ShardedTable",
                               "_ClientCore", "_versioned_type",
                               "is_versioned_handle",
                               "_require_cluster_build", "SoftwareHashMap",
                               "iter_key_groups", "first_repeated_row",
                               "PARTIAL_MERGE", "rehashed_entries",
                               "__meta__", "row_images", "FilterStage",
                               "RegexStage", "ProjectStage", "EvalStage",
                               "_query_stages", "_make_join_stage",
                               "state_entries", "_acc_mirror",
                               "_insertion_queue", "._overflow_groups",
                               "SelectParts", "unstack_select",
                               "DagPlan", "StagePlan", "PlacementPlan",
                               "run_client_steps", "_run_split",
                               "_run_stage", "client_steps=", "_ship_read",
                               "_read_build_rows", "RoundRobinCombiner",
                               "operator_cycle_ns", "memory_cycle_ns",
                               "pipeline_fill_latency_ns")),
            (("src",), ("def assemble(", "def requests(")),
            (("src", "docs"), ("BufferPool", "StorageBackend", "class Tally",
                               "ThroughputMeter", "def median(")),
            # ``repro run`` is the one entry point to the experiments.
            (("src/repro/experiments",), ("def main(",)),
            (("src/repro/core/api.py",), ("def _node(", "def head(")),
            # The oracle interprets the resolved tree: no binder, head
            # Query or Bound* record on its side of a comparison.
            (("src/repro/baselines",), ("bind_select", "Bound", "Query(",
                                        "core.query")),
            # The dict Z-set lives on only as the oracle of
            # tests/test_core_zset.py: no image -> weight dict, per-entry
            # index merge or per-row bootstrap in the view engine.
            (("src/repro/core/views.py", "src/repro/core/zset.py",
              "src/repro/core/api.py"),
             ("dict[bytes, int]", "dict[bytes, dict", "bootstrap_into",
              "_merge_index", "load_static", "compactions_seen")),
            # The data plane schedules plain callbacks on priced pipes: no
            # event fan-in and no per-packet closure in these three files.
            (("src/repro/network/rdma.py", "src/repro/sim/resources.py",
              "src/repro/memory/mmu.py"), ("all_of", "lambda"))):
        for root in roots:
            paths = ([repo / root] if (repo / root).is_file()
                     else (repo / root).rglob("*.*"))
            for path in paths:
                if path.suffix not in (".py", ".md"):
                    continue
                text = path.read_text()
                for gone in names:
                    assert gone not in text, f"{gone!r} is back in {path}"


# -- zero-copy from_bytes contract --------------------------------------------

def test_from_bytes_roundtrips_exactly():
    schema = default_schema()
    rows = schema.empty(16)
    rows["a"] = np.arange(16)
    rows["b"] = np.linspace(0.0, 1.5, 16)
    image = schema.to_bytes(rows)
    view = schema.from_bytes(image)
    np.testing.assert_array_equal(view["a"], rows["a"])
    np.testing.assert_array_equal(view["b"], rows["b"])
    assert schema.to_bytes(view) == image


def test_from_bytes_view_is_zero_copy_and_readonly():
    schema = default_schema()
    image = schema.to_bytes(schema.empty(8))
    view = schema.from_bytes(image)
    assert not view.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        view["a"] = 1


def test_from_bytes_never_aliases_writable_buffers():
    """Even a writable source (bytearray / plain memoryview) yields a
    read-only view — the zero-copy path can never scribble on a buffer the
    producer still owns."""
    schema = default_schema()
    source = bytearray(schema.to_bytes(schema.empty(4)))
    for buf in (source, memoryview(source)):
        view = schema.from_bytes(buf)
        assert not view.flags.writeable


def test_from_bytes_copy_flag_gives_writable_owned_array():
    schema = default_schema()
    image = schema.to_bytes(schema.empty(4))
    arr = schema.from_bytes(image, copy=True)
    assert arr.flags.writeable
    arr["a"] = 7  # must not raise
    # and the original image is untouched
    assert schema.from_bytes(image)["a"][0] == 0


def test_row_parser_handles_misaligned_bursts_over_memoryviews():
    """Split rows across memoryview chunks still parse byte-exactly."""
    from repro.operators.base import _RowParser

    schema = default_schema()
    rows = schema.empty(33)
    rows["a"] = np.arange(33)
    image = schema.to_bytes(rows)
    parser = _RowParser(schema)
    out = []
    cursor = 0
    mv = memoryview(image)
    for size in (100, 7, 512, 1, 1000, len(image)):  # ragged chunking
        chunk = mv[cursor:cursor + size]
        cursor += len(chunk)
        batch = parser.feed(chunk)
        if len(batch):
            out.append(schema.to_bytes(batch))
        if cursor >= len(image):
            break
    parser.finish()
    assert b"".join(out) == image
