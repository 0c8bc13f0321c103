"""Regression guards for the event-loop fast path and zero-copy data plane.

Budgets are deliberately generous (events exact-ish, wall clock ~10x
headroom) — they exist to catch order-of-magnitude regressions such as the
per-callback heap scheduling or per-burst byte copies this PR removed, not
to flake on slow CI machines.
"""

import cProfile
import pstats
import sys
import time
import tracemalloc
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
from repro.core.node import FarviewNode, releaser
from repro.core.pipeline_compiler import compile_query
from repro.core.query import Query, select_distinct, select_star
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


# -- a lone stream's packets are a train: the loop works per burst ------------

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
    """A stream alone on the downlink runs as a train: its packets' grants,
    landings and credit hand-offs take no loop callbacks, and the loop
    runs one where the producer waits (a chunk's credit wait ending, the
    stream draining).  A burst's consumer and next fetch run inside the
    callback that hands them off when nothing else is due then.

    1 MiB raw READ at 32 credits, 64 bursts of 16 packets: 197 callbacks,
    3.1 a burst — translation delay, channel occupancy, the credit wait's
    end (389, 6.1 a burst, while a reader process fed the producer
    through a two-slot queue; 3,362 — 3.3 a packet — when every packet
    was granted, landed and handed its credit on by a callback of its
    own; 6.6 a packet before that).  A selection at 50 % never exhausts
    the window: against the same scan shipping nothing, its 515 packets
    add 1 callback (1,095 one hop at a time).
    """
    sim, client, table, workload = _one_mebibyte_table()
    client.table_write(table, workload.rows)
    bursts = MB // DEFAULT_BURST_BYTES
    events, packets, image = _events_and_packets(
        sim, client, client.table_read, table)
    assert packets == MB // KB and len(image) == MB
    assert events <= 4 * bursts

    nothing = select_star(Compare("a", "<", 0))
    half = select_star(workload.predicate)
    idle_events, idle_packets, _ = _events_and_packets(
        sim, client, client.far_view, table, nothing)
    events, packets, result = _events_and_packets(
        sim, client, client.far_view, table, half)
    assert idle_packets == 0 and packets == -(-result.num_rows * 64 // KB)
    assert 0.45 * MB < result.num_rows * 64 < 0.55 * MB
    assert events - idle_events <= 4
    assert events <= 8 * bursts


def test_response_packet_python_call_budget():
    """A train replays its packets' hops inline, so what a warm 1 MiB raw
    READ calls in ``repro.sim`` + ``repro.network`` is per burst: at most
    24 Python-level calls a burst (23.9 measured: the chunk's cut,
    settle, plan and callback, the hand-offs and the two channels'
    occupancy; 40.7 with the Store hand-off, its three events and two
    generator resumes; 156, 9.8 a packet, when each packet's hops ran in
    frames of their own; 19.9 a packet when the grant relayed its pick
    through ``_grant_next`` and the streamer cut each packet through
    ``_emit`` / ``try_acquire`` / ``_transmit``)."""
    sim, client, table, workload = _one_mebibyte_table()
    client.table_write(table, workload.rows)
    client.table_read(table)
    qp = client.connection.qp
    packets = qp.responses_received
    profile = cProfile.Profile()
    profile.enable()
    client.table_read(table)
    profile.disable()
    packets = qp.responses_received - packets
    assert packets == MB // KB
    calls = (_calls_into(profile, "/repro/sim/")
             + _calls_into(profile, "/repro/network/"))
    assert calls <= 24 * (MB // DEFAULT_BURST_BYTES)


def test_a_burst_enters_the_memory_stack_in_one_frame_a_hop():
    """A streamed burst's translation is one frame (fault check, TLB
    probe, lookup or fill) and its channel occupancy another, so a warm
    1 MiB raw READ makes 5 calls a burst into ``repro.memory``: the
    fetch's ``translate_range``, TLB lookup and charge, the occupancy hop
    and its stripe extent (14.1 a burst when the fetch went through
    ``translate_range`` → ``_translation_charge`` / ``_check_bounds`` /
    ``translate`` and a list of ``occupy`` wrappers); the few beyond are
    the verb's own image and bounds check."""
    sim, client, table, workload = _one_mebibyte_table()
    client.table_write(table, workload.rows)
    client.table_read(table)
    profile = cProfile.Profile()
    profile.enable()
    client.table_read(table)
    profile.disable()
    bursts = MB // DEFAULT_BURST_BYTES
    assert _calls_into(profile, "/repro/memory/") <= 5 * bursts + 8


def test_streaming_selection_callback_budget():
    """A streaming selection's burst is three loop callbacks — the
    translation delay, the channel occupancy and the ingest pipe — and
    the consumer's turn and the next fetch run inside them: a 50 %
    selection over a warm 1 MiB table (64 bursts) makes 203, 3.2 a
    burst (333, 5.2 a burst, while the ingest waited in a consumer
    process fed through a two-slot queue)."""
    sim, client, table, workload = _one_mebibyte_table()
    client.table_write(table, workload.rows)
    half = select_star(workload.predicate)
    client.far_view(table, half)                      # deployed: warm
    events, packets, result = _events_and_packets(
        sim, client, client.far_view, table, half)
    assert packets == -(-result.num_rows * 64 // KB)
    assert events <= 3.5 * (MB // DEFAULT_BURST_BYTES)


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

def _build_calls(build_rows):
    """Python-level calls into ``repro.operators`` that loading a
    ``build_rows``-row build side makes, and the join it loaded."""
    dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
    dim = dim_schema.empty(build_rows)
    dim["id"] = np.arange(build_rows) * 3
    dim["rate"] = np.arange(build_rows) * 0.5
    op = SmallTableJoinOperator(dim_schema, "id", "a", ["rate"])
    profile = cProfile.Profile()
    profile.enable()
    op.load_build(dim)
    profile.disable()
    return _calls_into(profile, "/repro/operators/"), op


def test_join_python_call_budget():
    """Build 16,384 keys, probe 65,536 rows in one pass: the Python-level
    calls into ``repro.operators`` are O(ways) for the build and O(1) for
    the probe.

    The build is one bulk cuckoo ``insert``, an array pass per way, so its
    calls do not grow with the build rows (22 at 1,024 and at 16,384
    rows; ~2 per row when each row was its own ``put``).  Hashing,
    lookup, key compare and gather are array passes over the whole probe
    side.  Per-row hashing or a per-match copy loop — 2.3M calls here
    before the join went array-resident — lands far over the budget.
    """
    build_rows, probe_rows = 16_384, 65_536
    small, _ = _build_calls(1_024)
    build, op = _build_calls(build_rows)
    assert 0 < build == small < 10 * op.table.ways
    schema = default_schema()
    fact = schema.empty(probe_rows)
    fact["a"] = np.arange(probe_rows)        # ids are 0, 3, ..., 49149
    image = memoryview(schema.to_bytes(fact))
    pipeline = OperatorPipeline("join", schema, [op])

    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    rows, _ = pipeline.run(image)
    out = pipeline.emit(rows)
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
    assert 0 < calls < 100
    assert wall < 5.0   # ~0.1 s under the profiler; slack for slow CI


# -- the grouping operators run once per scan ---------------------------------

def test_grouping_operator_python_call_budget():
    """65,536 rows through a DISTINCT and a GROUP BY pipeline, run once
    and released in DRAM-burst steps, at 64 keys and at all-distinct
    keys: the Python-level calls into ``repro.operators`` are
    O(distinct keys past the first overflow + bursts that release rows).

    Grouping, accumulation, the LRU register and the insertion of new
    keys up to the first overflow are array passes over the whole scan:
    32 and 33 calls at 64 keys, where one array transform per burst made
    ~2,460 each and the per-tuple loops 72,327 (DISTINCT, one register
    probe a row) and 203,916 (GROUP BY, three calls a row).  At
    all-distinct keys the default tables fill up: DISTINCT's last rows
    run on its per-row path (three calls a row, as every row of the old
    loop did) and GROUP BY puts each key past the first overflow, both
    inside the per-key term; DISTINCT's output then also releases with
    every burst, two calls each.
    """
    nrows = 65_536
    schema = default_schema()
    for distinct in (64, nrows):
        rows = schema.empty(nrows)
        rows["a"] = (np.arange(nrows) * 7) % distinct
        rows["b"] = (np.arange(nrows) % 100) * 0.25
        image = memoryview(schema.to_bytes(rows))
        ends = range(DEFAULT_BURST_BYTES, len(image) + 1,
                     DEFAULT_BURST_BYTES)
        specs = [AggregateSpec("count", "*"), AggregateSpec("sum", "b"),
                 AggregateSpec("min", "b")]
        expected = software_groupby(rows, schema, ["a"], specs).rows
        for op in (DistinctOperator(["a"]), GroupByOperator(["a"], specs)):
            pipeline = OperatorPipeline(op.name, schema, [op])
            profile = cProfile.Profile()
            profile.enable()
            release = releaser(pipeline, image)
            out = b"".join([release(end, len(image)) for end in ends]
                           + [pipeline.flush()])
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
            budget = (60 if distinct == 64
                      else 3 * distinct + 2 * len(ends) + 60)
            assert 0 < calls < budget, (op.name, distinct, calls)


def _store_reaches(profile) -> int:
    """How many times the profiled code reached into the frame store for
    bytes (``FrameStore.write`` and ``FrameStore.view`` calls)."""
    return sum(nc for (filename, _, name), (_, nc, _, _, _)
               in pstats.Stats(profile).stats.items()
               if name in ("write", "view")
               and filename.replace("\\", "/").endswith("memory/dram.py"))


def test_raw_read_lands_its_bytes_once():
    """A 1 MiB raw READ over 64 KiB pages: its 1,024 packets carry
    lengths, so it makes O(1) calls into ``network/qp.py`` (1,024
    ``deposit`` calls, one a packet, when each landed its own slice),
    and the MMU reaches into the frame store once: its 16 pages sit on
    consecutive fresh frames, so the image is one view (one slice a page,
    16, when every image was a join; once per 16 KiB burst, 64, before
    that) — and the bytes reach the client as the one copy the node took
    of that view, with no second copy out of a buffer."""
    sim = Simulator()
    node = FarviewNode(sim, FarviewConfig(memory=MemoryConfig(
        channels=2, channel_capacity=16 * MB, page_size=64 * KB)))
    client = FarviewClient(node, buffer_capacity=MB)
    client.open_connection()
    workload = selection_workload(MB // 64, selectivity=0.5, seed=3)
    table = FTable("t", workload.schema, len(workload.rows))
    client.alloc_table_mem(table)
    client.table_write(table, workload.rows)
    qp = client.connection.qp
    profile = cProfile.Profile()
    profile.enable()
    data, _ = client.table_read(table)
    profile.disable()
    assert data == workload.schema.to_bytes(workload.rows)
    assert qp.responses_received == MB // KB
    assert 0 < _calls_into(profile, "/repro/network/qp.py") < 10
    assert _store_reaches(profile) == 1


def _eight_mebibyte_wide_table():
    """A warm client holding a 16,384 x 512 B table (8 MiB) on fresh
    frames, with a buffer that holds it whole."""
    sim = Simulator()
    node = FarviewNode(sim, FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=16 * MB)))
    client = FarviewClient(node, buffer_capacity=8 * MB)
    client.open_connection()
    schema = wide_schema(512)
    rows = make_rows(schema, 8 * MB // 512, seed=7)
    table = FTable("wide", schema, len(rows))
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    return client, table, rows


def _traced_peak(verb, *args):
    """Peak bytes allocated while ``verb(*args)`` runs (run once before,
    untraced, so nothing is cold), and its value."""
    verb(*args)
    tracemalloc.start()
    try:
        value = verb(*args)[0]
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()


def test_a_scan_reads_the_pool_in_place():
    """Copy budget of one warm query over an 8 MiB table: a
    smart-addressing projection gathers its three columns (384 KiB)
    straight out of a view of the frame store, so it peaks under 2 MiB
    (8.9 MiB when every image was a joined copy of the table).  A raw
    READ keeps one snapshot, the image it lands: its peak stays within
    1.25x the bytes it reads."""
    client, table, rows = _eight_mebibyte_wide_table()
    projection = Query(projection=("a", "b", "c"), smart_addressing=True)
    peak, result = _traced_peak(client.far_view, table, projection)
    assert result.report.ingest_mode == "smart"
    np.testing.assert_array_equal(result.rows()["c"], rows["c"])
    assert peak < 2 * MB, peak
    peak, image = _traced_peak(client.table_read, table)
    assert len(image) == table.size_bytes == 8 * MB
    assert peak <= 1.25 * table.size_bytes, peak


# -- a pipeline scan runs its operators once -----------------------------------

def _grouping_scan_calls(bursts):
    """One offloaded GROUP BY scan of a ``bursts``-burst table on a warm
    region: the Python-level calls it makes into ``repro.operators`` and
    ``repro.common``, and how many times the MMU reaches into the frame
    store for bytes (``_store_reaches``)."""
    sim = Simulator()
    config = FarviewConfig(memory=MemoryConfig(channels=2,
                                               channel_capacity=16 * MB))
    client = FarviewClient(FarviewNode(sim, config))
    client.open_connection()
    schema = default_schema()
    nrows = bursts * DEFAULT_BURST_BYTES // schema.row_width
    rows = schema.empty(nrows)
    rows["a"] = np.arange(nrows) % 16
    rows["b"] = np.arange(nrows) * 0.5
    table = FTable("t", schema, nrows)
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    query = Query(group_by=("a",), aggregates=(AggregateSpec("sum", "b"),))
    client.far_view(table, query)  # load the region
    compiled = compile_query(query, table, config)
    profile = cProfile.Profile()
    profile.enable()
    report = sim.run_process(client.node.serve_farview(
        client.connection, table, compiled))
    profile.disable()
    assert report.rows_in == nrows and report.rows_out == 16
    return (_calls_into(profile, "/repro/operators/"),
            _calls_into(profile, "/repro/common/"), _store_reaches(profile))


def test_pipeline_scan_python_call_budget():
    """A pipeline scan computes its result once: at 512 DRAM bursts it
    makes exactly as many Python-level calls into ``repro.operators`` and
    ``repro.common`` as at 64, and the MMU hands the pipeline the table
    as one view of the frame store, not a copy per page it spans or per
    burst — each burst is only timed, translated and fault-checked.
    Here that is 48 and 24 calls at either size; running the operators
    burst by burst made 8 and 6 more calls a burst (4,172 and 3,087 at
    512 bursts), and one 16 KiB de-striping copy a burst."""
    *small, small_reads = _grouping_scan_calls(64)
    *large, large_reads = _grouping_scan_calls(512)
    assert small == large and all(small), (small, large)
    assert small_reads == large_reads == 1


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


def _c_calls(call) -> list[str]:
    """Names of the C functions ``call()`` enters, in order, as
    ``sys.setprofile`` reports them."""
    names: list[str] = []

    def hook(_frame, event, arg):
        if event == "c_call":
            owner = type(getattr(arg, "__self__", None)).__name__
            names.append(f"{owner}.{arg.__name__}")

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names


def test_short_key_grouping_makes_no_python_object_per_row():
    """A ``first_occurrence`` without a map over keys of at most 8 bytes
    is a fixed sequence of array calls: no ``tolist``, no dict, and the
    same C calls at 16,384 keys as at 1,024.  With a map (the streaming
    operators) it is still the ``dict.setdefault`` pass docs/OPERATORS.md
    describes: the map gains exactly the keys new to it, numbered on
    from its length in first-seen order."""
    schema = Schema([Column("id", "int64"), Column("cat", "char", 4),
                     Column("tag", "char", 3)])
    for columns in (["cat"], ["tag"], ["id"]):
        traces = []
        for n in (1_024, 16_384):
            rows = schema.empty(n)
            rows["id"] = np.arange(n) % 97
            rows["cat"] = rows["tag"] = (np.arange(n) % 13).astype("S")
            keys = key_image(rows, columns)
            traces.append(_c_calls(lambda: first_occurrence(keys)))
        small, large = traces
        assert small == large, columns
        assert not [name for name in large
                    if "tolist" in name or name.startswith("dict.")]

    rows = schema.empty(6)
    rows["cat"] = [b"a", b"b", b"a", b"c", b"b", b"d"]
    keys = key_image(rows, ["cat"])
    seen = {keys[0].tobytes(): 0, keys[1].tobytes(): 1}
    out = []
    trace = _c_calls(lambda: out.extend(first_occurrence(keys, seen)))
    assert "ndarray.tolist" in trace and "dict.update" in trace
    assert [a.tolist() for a in out] == [[3, 5], [0, 1, 0, 2, 1, 3]]
    assert list(seen.values()) == [0, 1, 2, 3]
    assert list(seen) == [keys[i].tobytes() for i in (0, 1, 3, 5)]


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
    ``ClusterClient._run_tail_proc`` exactly once, and none re-enters it:
    the head and each arm are landed inside the statement's own tail."""
    client = ClusterClient(FarviewCluster(Simulator(), 2))
    client.open_connection()
    for name, (schema, rows) in make_tables(256, 64, 16).items():
        client.create_table(name, schema, rows)
    run_tail = ClusterClient._run_tail_proc
    entries, depth, deepest = 0, 0, 0

    def counted(self, *args, **kwargs):
        nonlocal entries, depth, deepest
        entries, depth = entries + 1, depth + 1
        deepest = max(deepest, depth)
        try:
            return (yield from run_tail(self, *args, **kwargs))
        finally:
            depth -= 1

    monkeypatch.setattr(ClusterClient, "_run_tail_proc", counted)
    with_client_work = 0
    for _label, statement in QUERIES:
        for placement in ("offload", "ship", "auto"):
            result, _ = client.sql(statement, placement=placement)
            plan = result.explain
            with_client_work += plan is not None and (
                bool(plan.tail) or plan.split < len(plan.chain))
    assert with_client_work > 0
    assert (entries, deepest) == (with_client_work, 1)


def _lowerings(call) -> int:
    """How often ``call()`` lowers a Query to its step nodes: calls of
    ``pipeline_compiler.operator_chain``, whoever makes them."""
    profile = cProfile.Profile()
    profile.runcall(call)
    return sum(nc for (filename, _, name), (_, nc, _, _, _)
               in pstats.Stats(profile).stats.items()
               if name == "operator_chain"
               and filename.endswith("pipeline_compiler.py"))


def test_a_query_is_lowered_once_where_it_enters():
    """A Query is lowered where it enters — the verb, the plan, an arm's
    landing — and below that the node path slices its step nodes: a
    4-shard GROUP BY ``far_view`` lowers once (8 times while every shard
    compiled the Query again), an ``auto``-planned GROUP BY once (13
    while every candidate packed a prefix back into a Query), and a
    fig18 statement under ``auto`` at most once per Query it holds (up
    to 18)."""
    client = ClusterClient(FarviewCluster(Simulator(), 4))
    client.open_connection()
    schema, rows = groupby_workload(4096, 64, seed=1)
    table = client.create_table("T", schema, rows)
    query = Query(group_by=("a",), aggregates=(AggregateSpec("sum", "b"),))
    assert _lowerings(lambda: client.far_view(table, query)) == 1
    assert _lowerings(lambda: client.far_view_planned(
        table, query, placement="auto")) == 1
    for name, (tschema, trows) in make_tables(256, 64, 16).items():
        client.create_table(name, tschema, trows)
    for label, statement in QUERIES:
        assert _lowerings(lambda: client.sql(
            statement, placement="auto")) <= 3, label


# -- a SELECT is bound once per catalog state ---------------------------------

def _compile_calls(call, *args) -> int:
    """Python-level calls ``call(*args)`` makes into the SQL compiler
    (``core/compile.py`` and the IR it binds, ``core/ir.py``)."""
    profile = cProfile.Profile()
    profile.runcall(call, *args)
    return (_calls_into(profile, "/repro/core/compile.py")
            + _calls_into(profile, "/repro/core/ir.py"))


def test_a_select_is_bound_once_per_catalog_state():
    """Running a fig18 statement again on an unchanged catalog makes no
    call into the compiler (6,498 over ``sql_join``'s measured phase
    while every call parsed and bound its text again); a
    ``create_table`` or a ``drop_table`` makes the next call bind
    again."""
    client = ClusterClient(FarviewCluster(Simulator(), 2))
    client.open_connection()
    tables = make_tables(256, 64, 16)
    for name, (schema, rows) in tables.items():
        client.create_table(name, schema, rows)
    for _label, statement in QUERIES:
        for placement in ("offload", "ship", "auto"):
            client.sql(statement, placement=placement)
            assert _compile_calls(client.sql, statement, placement) == 0
    statement = QUERIES[0][1]
    extra = client.create_table("extra", *tables["customer"])
    assert _compile_calls(client.sql, statement) > 0
    assert _compile_calls(client.sql, statement) == 0
    client.drop_table(extra)
    assert _compile_calls(client.sql, statement) > 0
    assert _compile_calls(client.sql, statement) == 0


def test_the_catalog_keeps_no_write_and_at_most_its_cap_of_selects():
    """1,000 distinct INSERT texts leave nothing behind, and of more
    distinct SELECT texts than the cap the catalog keeps the most
    recently used ``_PREPARED_CAP``."""
    from repro.core.catalog import _PREPARED_CAP

    client = ClusterClient(FarviewCluster(Simulator(), 2))
    client.open_connection()
    schema = default_schema()
    client.create_table("t", schema, make_rows(schema, 64))
    catalog = client.catalog
    for i in range(1_000):
        catalog.prepare(f"INSERT INTO t VALUES ({i}, {i}.5, 1, 2, 3, 4, 5, 6)")
    client.sql("INSERT INTO t VALUES (7, 0.5, 1, 2, 3, 4, 5, 6)")
    client.sql("UPDATE t SET c = 1 WHERE a < 8")
    client.sql("DELETE FROM t WHERE a = 7")
    assert len(catalog._prepared) == 0
    selects = [f"SELECT a FROM t WHERE a < {i}"
               for i in range(_PREPARED_CAP + 8)]
    for statement in selects:
        catalog.prepare(statement)
    assert list(catalog._prepared) == selects[8:]
    catalog.prepare(selects[8])             # used again: kept the longest
    catalog.prepare("SELECT b FROM t")
    assert len(catalog._prepared) == _PREPARED_CAP
    assert selects[8] in catalog._prepared
    assert selects[9] not in catalog._prepared


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
    unused tallies and the per-figure entry points beside ``repro run``,
    and the blocking statement route beside its process and the second
    pool normalizer, and the cuckoo table's object per entry, and the
    second boolean expression tree with its converter and regex record,
    and the second client-step vocabulary with its second grouped-schema
    rule, dedup merge, arm-step list and expression-schema helper, and
    the per-burst pipeline entry with its row parser and slot rows, and
    the read path's per-packet deposits, striped channel stores with
    their de-striping copy, and burst producer process, and the table
    flag that forked reads and writes, and the CPU baselines'
    per-operator methods with the planner's per-operator price chain, and
    the options no caller set (the lease-wait term, ``CpuConfig``, the
    cost-model override and the regex engine count), and the planner's
    second statement of a Query's operators (the name-to-node table, the
    build profile and the snapshot counts ``plan_placement`` was handed),
    and the node's restatements of that chain (the Query's signature and
    projection-only test, the fragment's label set), and the response
    packet's relays (the grant's pick helper, the
    clock and pipe-horizon property hops, and the streamer's per-packet
    cut, credit probe and transmit), and the burst hand-off's queue
    resource and consumer loop — and the reference model binds
    nothing."""
    repo = Path(__file__).resolve().parent.parent
    for roots, names in (
            (("src",), ("hash_key(", "HashFamily", "slots is None",
                        "update_in_place", "class _Entry")),
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
            (("src",), ("def assemble(", "def requests(", "def _as_nodes(",
                        "def _resolve_nodes(")),
            (("src", "docs"), ("BufferPool", "StorageBackend", "class Tally",
                               "ThroughputMeter", "def median(")),
            # ``repro run`` is the one entry point to the experiments.
            (("src/repro/experiments",), ("def main(",)),
            # A statement is one process: no blocking route, tail, raw
            # reader or second scan verb beside the generators.
            (("src/repro/core/api.py",), ("def _node(", "def head(",
                                          "def _placed(", "def _run_tail(",
                                          "def _read_raw(",
                                          "def scan_versioned(",
                                          "def sql(")),
            # The oracle interprets the resolved tree: no binder, head
            # Query or Bound* record on its side of a comparison.
            (("src/repro/baselines",), ("bind_select", "Bound", "Query(",
                                        "core.query")),
            # One expression language: a selection predicate is an IR
            # condition, checked by check_condition and masked by
            # eval_mask — no node class of its own.
            (("src", "docs"), ("class Predicate", "predicate_from_ir",
                               "RegexFilter")),
            (("src/repro/operators/selection.py",), ("def evaluate(",
                                                     "def validate(")),
            # One client-step vocabulary: a step is a Bound* node naming
            # its own kernel, never a (name, Query) pair; one grouped
            # output schema (operators.aggregate.grouped_schema) and one
            # first-wins dedup (sw_ops.software_distinct).
            (("src", "docs"), ("aggregate_output_schema",
                               "group_output_schema", "merge_distinct_rows",
                               "_ARM_STEPS", "_eval_schema")),
            (("src/repro/core",), ("for name, op in",)),
            # The dict Z-set lives on only as the oracle of
            # tests/test_core_zset.py: no image -> weight dict, per-entry
            # index merge or per-row bootstrap in the view engine.
            (("src/repro/core/views.py", "src/repro/core/zset.py",
              "src/repro/core/api.py"),
             ("dict[bytes, int]", "dict[bytes, dict", "bootstrap_into",
              "_merge_index", "load_static", "compactions_seen")),
            # A scan runs its operators once over the whole image: no
            # per-burst pipeline entry, no parser carrying a split row's
            # tail between bursts, and no per-key slot rows for the
            # grouping operators' first-seen keys (one batch insert).
            (("src", "docs"), ("process_chunk", "_RowParser",
                               "batch_slots")),
            # The data plane schedules plain callbacks on priced pipes: no
            # event fan-in and no per-packet closure in these three files.
            (("src/repro/network/rdma.py", "src/repro/sim/resources.py",
              "src/repro/memory/mmu.py"), ("all_of", "lambda")),
            # Bytes once on the read path: a response lands whole, pages
            # are stored unstriped, and a burst's hand-off is callbacks —
            # no per-packet deposit, de-striping copy, channel store or
            # burst producer process.
            (("src",), ("deposit", "_page_read_into", "store_slice",
                        "_burst_producer")),
            # One kind of table: the deltas at the pinned epoch decide a
            # scan and the partition spec decides a write — no flag.
            (("src",), (".versioned", "_require_versioned",
                        "versioned=")),
            # One client bill: the baselines run step nodes through the
            # client kernels, and a step's price is kernel_cost's.
            (("src/repro/baselines/lcpu.py", "src/repro/baselines/rcpu.py"),
             ("def select(", "def distinct(", "def group_by(", "def regex(",
              "def decrypt(")),
            (("src/repro/core/cost_model.py",), ("step.op ==",)),
            # Options no caller set: the planner's lease-wait term, the
            # CPU config class, the client's cost-model override and the
            # regex operator's engine count.
            (("src", "docs"), ("lease_manager", "lease_wait_ns", "CpuConfig",
                               "DEFAULT_ENGINES", "cpu_model=")),
            # The planner states a Query's operators once, as step nodes,
            # and reads a table's snapshot off its handle.
            (("src", "docs"), ("_CLIENT_STEP", "join_build_profile",
                               "join_build_shards", "total_rows=")),
            # The node compiles the chain: the region signature is built
            # in compile_query's walk, and a fragment resets the fields
            # of the nodes after its split.
            (("src", "docs"), ("is_projection_only", "def signature(",
                               "chain_labels(chain[:")),
            # A node runs a slice of the operator chain: each hint rides
            # its step node, so no fragment is packed back into a Query,
            # and the scatter and the result read nodes, not a Query.
            (("src", "docs"), ("build_fragment", "_KERNEL_FIELDS",
                               "_merge_query", "shard_query")),
            # A response packet's hops run in one frame each: no relay
            # for the grant's pick, the clock or the pipe's horizon, and
            # no per-packet cut, credit probe or transmit helper.
            (("src", "docs"), ("_grant_next", "def busy_until",
                               ".busy_until", "try_acquire", "def _emit(",
                               "def _transmit(")),
            # A DRAM burst reaches the response stream as callbacks: no
            # queue resource between a reader and a consumer process.
            # (``FrameStore`` is the pool's bytes, not a queue.)
            (("src", "docs"), ("class Store", " Store(", "_stream_memory"))):
        for root in roots:
            paths = ([repo / root] if (repo / root).is_file()
                     else (repo / root).rglob("*.*"))
            for path in paths:
                if path.suffix not in (".py", ".md"):
                    continue
                text = path.read_text()
                for gone in names:
                    assert gone not in text, f"{gone!r} is back in {path}"


def test_only_the_twins_drive_the_simulator():
    """Inside ``core/api.py`` only the generated blocking twin calls
    ``_run``: every route below a verb is a process, so it composes
    inside a running simulation."""
    import ast

    path = Path(__file__).resolve().parent.parent / "src/repro/core/api.py"
    tree = ast.parse(path.read_text())
    defs = [node for top in tree.body
            for node in ([top] if not isinstance(top, ast.ClassDef)
                         else top.body)
            if isinstance(node, ast.FunctionDef)]
    callers = {d.name for d in defs for node in ast.walk(d)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_run"}
    assert callers == {"_blocking"}


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


