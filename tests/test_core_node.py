"""Farview node + client API: end-to-end integration over the simulator."""

import numpy as np
import pytest

from repro.common.config import FarviewConfig, MemoryConfig, OperatorStackConfig
from repro.common.errors import (ConnectionError_, RegionUnavailableError,
                                 TranslationFault)
from repro.common.expr import eval_mask
from repro.common.records import default_schema, wide_schema
from repro.core.api import ClusterClient, FarviewClient
from repro.core.cluster import FarviewCluster
from repro.core.node import FarviewNode
from repro.core.query import Query, group_by_sum, select_distinct, select_star
from repro.core.table import FTable
from repro.operators.aggregate import AggregateSpec
from repro.operators.crypto import AesCtr
from repro.operators.encryption_op import encrypt_table_image
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import (
    distinct_workload,
    groupby_workload,
    make_rows,
    selection_workload,
    string_workload,
)

KB = 1024
MB = 1024 * 1024

SMALL_CONFIG = FarviewConfig(
    memory=MemoryConfig(channels=2, channel_capacity=8 * MB, page_size=64 * KB))


@pytest.fixture
def client():
    sim = Simulator()
    node = FarviewNode(sim, SMALL_CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    return client


def upload(client, name, schema, rows, **kw):
    table = FTable(name, schema, len(rows), **kw)
    client.alloc_table_mem(table)
    if kw.get("encrypted"):
        image = encrypt_table_image(schema.to_bytes(rows), kw["key"], kw["nonce"])
        client.table_write(table, image)
    else:
        client.table_write(table, rows)
    return table


# --- connection lifecycle ---------------------------------------------------------

def test_open_close_connection():
    sim = Simulator()
    node = FarviewNode(sim, SMALL_CONFIG)
    client = FarviewClient(node)
    conn = client.open_connection()
    assert conn.qp.connected
    assert node.free_regions == SMALL_CONFIG.operator_stack.regions - 1
    client.close_connection()
    assert node.free_regions == SMALL_CONFIG.operator_stack.regions


def test_double_open_rejected(client):
    with pytest.raises(ConnectionError_):
        client.open_connection()


def test_region_exhaustion():
    sim = Simulator()
    config = FarviewConfig(
        memory=SMALL_CONFIG.memory,
        operator_stack=OperatorStackConfig(regions=2))
    node = FarviewNode(sim, config)
    FarviewClient(node).open_connection()
    FarviewClient(node).open_connection()
    with pytest.raises(RegionUnavailableError):
        FarviewClient(node).open_connection()


def test_refused_and_closed_connections_leave_nothing_behind():
    """Regression: a refused open used to leak its MMU domain and link
    flow, and no close ever unregistered a flow — the arbiter scanned
    every flow ever opened, per packet."""
    sim = Simulator()
    node = FarviewNode(sim, SMALL_CONFIG)
    regions = SMALL_CONFIG.operator_stack.regions
    clients = []
    refused = 0
    for _ in range(regions + 2):
        client = FarviewClient(node)
        try:
            client.open_connection()
            clients.append(client)
        except RegionUnavailableError:
            refused += 1
    assert (len(clients), refused) == (regions, 2)
    for client in clients:
        client.close_connection()
    assert node.connections == {}
    assert node.mmu._page_tables == {}
    assert node.link.down_arbiter._flows == {}
    assert node.link.down_arbiter._order == []
    assert node.free_regions == regions
    # The crash path drops its flow too (no node round trip).
    holder = FarviewClient(node)
    holder.open_connection()
    node.fail()
    holder.abandon_connection()
    assert node.connections == {}
    assert node.link.down_arbiter._flows == {}


def test_verbs_require_connection():
    sim = Simulator()
    node = FarviewNode(sim, SMALL_CONFIG)
    client = FarviewClient(node)
    with pytest.raises(ConnectionError_):
        client.alloc_table_mem(FTable("t", selection_workload(1, 1.0).schema, 1))


# --- table write / read round trips -------------------------------------------------

def test_write_read_round_trip(client):
    wl = selection_workload(256, 1.0)
    table = upload(client, "S", wl.schema, wl.rows)
    data, elapsed = client.table_read(table)
    assert data == wl.schema.to_bytes(wl.rows)
    assert elapsed > 0


def test_partial_read(client):
    wl = selection_workload(64, 1.0)
    table = upload(client, "S", wl.schema, wl.rows)
    data, _ = client.table_read(table, offset=64, length=128)
    assert data == wl.schema.to_bytes(wl.rows)[64:192]


def test_free_table_mem(client):
    wl = selection_workload(16, 1.0)
    table = upload(client, "S", wl.schema, wl.rows)
    client.free_table_mem(table)
    assert not table.allocated
    assert "S" not in client.catalog


# --- offloaded queries: functional equality with software oracle ----------------------

def test_selection_matches_oracle(client):
    wl = selection_workload(2048, 0.5)
    table = upload(client, "S", wl.schema, wl.rows)
    result, elapsed = client.far_view(table, select_star(wl.predicate))
    expected = wl.rows[eval_mask(wl.predicate, wl.rows)]
    got = result.rows()
    assert len(got) == len(expected)
    for col in wl.schema.names:
        np.testing.assert_array_equal(got[col], expected[col])
    assert result.report.rows_in == 2048
    assert elapsed > 0


def test_selection_with_projection(client):
    wl = selection_workload(512, 0.25)
    table = upload(client, "S", wl.schema, wl.rows)
    result, _ = client.select(table, ["a", "c"], wl.predicate)
    expected = wl.rows[eval_mask(wl.predicate, wl.rows)]
    got = result.rows()
    assert got.dtype.names == ("a", "c")
    np.testing.assert_array_equal(got["a"], expected["a"])


def test_vectorized_selection_same_result_faster(client):
    wl = selection_workload(8192, 0.25)
    table = upload(client, "S", wl.schema, wl.rows)
    # Warm both pipelines so reconfiguration is excluded.
    client.far_view(table, select_star(wl.predicate))
    client.far_view(table, select_star(wl.predicate, vectorized=True))
    r_std, t_std = client.far_view(table, select_star(wl.predicate))
    r_vec, t_vec = client.far_view(table, select_star(wl.predicate,
                                                      vectorized=True))
    np.testing.assert_array_equal(r_std.rows()["a"], r_vec.rows()["a"])
    assert t_vec < t_std  # Figure 8(c) behaviour


def test_distinct_matches_oracle(client):
    schema, rows = distinct_workload(1024, 100)
    table = upload(client, "D", schema, rows)
    result, _ = client.select_distinct(table, ["a"])
    assert sorted(result.rows()["a"].tolist()) == sorted(set(rows["a"].tolist()))


def test_groupby_matches_oracle(client):
    schema, rows = groupby_workload(1024, 64)
    table = upload(client, "G", schema, rows)
    result, _ = client.far_view(table, group_by_sum("a", "b"))
    got = {int(k): v for k, v in zip(result.rows()["a"],
                                     result.rows()["sum_b"])}
    expected = {}
    for k, v in zip(rows["a"], rows["b"]):
        expected[int(k)] = expected.get(int(k), 0.0) + float(v)
    assert set(got) == set(expected)
    for k in expected:
        assert got[k] == pytest.approx(expected[k])


def test_groupby_overflow_merges_to_exactly_the_groups():
    """Regression: with the on-chip tables too small for the key set,
    the client merge of overflowed groups used to size its output by the
    report dict — merge metadata entry included — and emit one all-zero
    extra row."""
    config = FarviewConfig(
        memory=SMALL_CONFIG.memory,
        operator_stack=OperatorStackConfig(cuckoo_slots=8,
                                           lru_depth_per_table=2))
    client = FarviewClient(FarviewNode(Simulator(), config))
    client.open_connection()
    schema, rows = groupby_workload(1024, 256)
    table = upload(client, "G", schema, rows)
    result, _ = client.far_view(table, group_by_sum("a", "b"))
    assert result.report.overflow_groups, "config did not force overflow"
    expected = {}
    for k, v in zip(rows["a"], rows["b"]):
        expected[int(k)] = expected.get(int(k), 0.0) + float(v)
    got = result.rows()
    assert len(got) == len(expected)
    assert dict(zip(got["a"].tolist(), got["sum_b"].tolist())) \
        == pytest.approx(expected)


@pytest.mark.parametrize("route", ["far_view", "far_view_planned", "N=2"])
def test_subset_distinct_overflow_dedups_on_the_distinct_key(route):
    """Regression: DISTINCT over a key *subset* re-emits overflowed keys
    with different full rows; the client used to dedup on the whole row
    and returned 200 rows for 40 keys.  It must return exactly the
    first-seen row per key — through the plain verb, through the same
    node result under an explain, and on two shards (merged on the key
    all along; pinned)."""
    config = FarviewConfig(
        memory=SMALL_CONFIG.memory,
        operator_stack=OperatorStackConfig(
            cuckoo_tables=2, cuckoo_slots=4, cuckoo_max_kicks=2,
            lru_depth_per_table=1))
    schema = default_schema()
    rows = schema.empty(256)
    rows["a"] = np.arange(256) % 40
    rows["b"] = np.arange(256, dtype=np.float64)
    query = Query(distinct=True, distinct_columns=("a",))
    if route == "N=2":
        client = ClusterClient(FarviewCluster(Simulator(), 2, config))
        client.open_connection()
        table = client.create_table("D", schema, rows)
        result, _ = client.far_view(table, query)
        assert any(p.report.overflow_keys for p in result.parts)
    else:
        client = FarviewClient(FarviewNode(Simulator(), config))
        client.open_connection()
        table = upload(client, "D", schema, rows)
        if route == "far_view":
            result, _ = client.far_view(table, query)
        else:
            result, _ = client.far_view_planned(table, query,
                                                placement="offload")
            assert result.explain is not None
        assert result.report.overflow_keys, "config did not force overflow"
        assert len(schema.from_bytes(result.data)) > 40, "nothing leaked"
    np.testing.assert_array_equal(result.rows(), rows[:40])


def test_standalone_aggregation(client):
    wl = selection_workload(512, 1.0)
    table = upload(client, "A", wl.schema, wl.rows)
    query = Query(aggregates=(AggregateSpec("count", "*"),
                              AggregateSpec("sum", "a")))
    result, _ = client.far_view(table, query)
    row = result.rows()
    assert len(row) == 1
    assert row["count_star"][0] == 512
    assert row["sum_a"][0] == int(wl.rows["a"].sum())


def test_regex_query(client):
    schema, rows = string_workload(128, 64, match_fraction=0.5)
    table = upload(client, "R", schema, rows)
    result, _ = client.regex_match(table, "s", "farview")
    got_ids = set(result.rows()["id"].tolist())
    expected_ids = {int(r["id"]) for r in rows if b"farview" in bytes(r["s"])}
    assert got_ids == expected_ids


def test_encrypted_table_query(client):
    key, nonce = b"k" * 16, b"n" * 12
    wl = selection_workload(256, 0.5)
    table = upload(client, "E", wl.schema, wl.rows,
                   encrypted=True, key=key, nonce=nonce)
    query = Query(predicate=wl.predicate, decrypt_input=True)
    result, _ = client.far_view(table, query)
    expected = wl.rows[eval_mask(wl.predicate, wl.rows)]
    np.testing.assert_array_equal(result.rows()["a"], expected["a"])


def test_encrypted_transmission(client):
    key, nonce = b"x" * 16, b"y" * 12
    wl = selection_workload(128, 1.0)
    table = upload(client, "T", wl.schema, wl.rows)
    query = Query(predicate=wl.predicate, encrypt_output=(key, nonce))
    result, _ = client.far_view(table, query)
    # Raw shipped bytes are ciphertext...
    assert result.data != wl.schema.to_bytes(wl.rows)
    # ...but decrypt to the exact table.
    plain = AesCtr(key, nonce).process(result.data)
    assert plain == wl.schema.to_bytes(wl.rows)
    np.testing.assert_array_equal(result.rows()["a"], wl.rows["a"])


def test_smart_addressing_query(client):
    schema = wide_schema(512)
    rows = make_rows(schema, 128)
    table = upload(client, "W", schema, rows)
    query = Query(projection=("a", "b", "c"), smart_addressing=True)
    result, _ = client.far_view(table, query)
    assert result.report.ingest_mode == "smart"
    got = result.rows()
    np.testing.assert_array_equal(got["a"], rows["a"])
    np.testing.assert_array_equal(got["c"], rows["c"])
    # SA scanned only the projected bytes, not the whole table.
    assert result.report.bytes_scanned == 128 * 24


def test_smart_addressing_runs_of_unequal_width(client):
    """Three column runs of 16, 8 and 8 bytes: 32 bytes a tuple over
    three requests.  Each request batch releases the rows its share of
    the gathered image completes, and the last one releases them all; a
    fixed 10 bytes a request used to stop 2 bytes short of every tuple
    and end the stream mid-tuple."""
    schema = default_schema()
    rows = schema.empty(256)
    for name in schema.names:
        rows[name] = np.arange(256)
    table = upload(client, "W", schema, rows)
    query = Query(projection=("a", "b", "d", "f"), smart_addressing=True)
    result, _ = client.far_view(table, query)
    assert result.report.ingest_mode == "smart"
    got = result.rows()
    for name in ("a", "b", "d", "f"):
        np.testing.assert_array_equal(got[name], rows[name])
    assert result.report.bytes_scanned == 256 * 32


# --- reconfiguration and timing behaviour --------------------------------------------------

def test_first_query_pays_reconfiguration(client):
    wl = selection_workload(256, 0.5)
    table = upload(client, "S", wl.schema, wl.rows)
    r1, t1 = client.far_view(table, select_star(wl.predicate))
    r2, t2 = client.far_view(table, select_star(wl.predicate))
    assert r1.report.reconfigured
    assert not r2.report.reconfigured
    reconf = SMALL_CONFIG.operator_stack.reconfiguration_ns
    assert t1 > reconf
    assert t2 < reconf


def test_different_query_reconfigures_again(client):
    wl = selection_workload(256, 0.5)
    table = upload(client, "S", wl.schema, wl.rows)
    client.far_view(table, select_star(wl.predicate))
    r, _ = client.far_view(table, select_distinct(["a"]))
    assert r.report.reconfigured


def test_larger_tables_take_longer(client):
    times = []
    for n in (512, 1024, 2048):
        wl = selection_workload(n, 1.0)
        table = upload(client, f"S{n}", wl.schema, wl.rows)
        client.far_view(table, select_star(wl.predicate))  # warm
        _, elapsed = client.far_view(table, select_star(wl.predicate))
        times.append(elapsed)
    assert times[0] < times[1] < times[2]


def test_lower_selectivity_not_slower(client):
    wl_hi = selection_workload(4096, 1.0)
    wl_lo = selection_workload(4096, 0.25)
    t_hi_table = upload(client, "HI", wl_hi.schema, wl_hi.rows)
    t_lo_table = upload(client, "LO", wl_lo.schema, wl_lo.rows)
    client.far_view(t_hi_table, select_star(wl_hi.predicate))
    _, t_hi = client.far_view(t_hi_table, select_star(wl_hi.predicate))
    client.far_view(t_lo_table, select_star(wl_lo.predicate))
    _, t_lo = client.far_view(t_lo_table, select_star(wl_lo.predicate))
    assert t_lo <= t_hi  # less data shipped can never be slower


# --- multi-client fairness (Figure 12 mechanics) ---------------------------------------------

def test_two_clients_run_concurrently():
    sim = Simulator()
    node = FarviewNode(sim, SMALL_CONFIG)
    clients = [FarviewClient(node) for _ in range(2)]
    tables = []
    for i, c in enumerate(clients):
        c.open_connection()
        schema, rows = distinct_workload(2048, 32, seed=i)
        tables.append(upload(c, f"T{i}", schema, rows))
    # Warm pipelines sequentially (reconfiguration excluded from timing).
    for c, t in zip(clients, tables):
        c.far_view(t, select_distinct(["a"]))

    finish = {}

    def run(c, t, tag):
        result = yield from c.far_view_proc(t, select_distinct(["a"]))
        finish[tag] = (sim.now, result)

    start = sim.now
    p1 = sim.process(run(clients[0], tables[0], "a"))
    p2 = sim.process(run(clients[1], tables[1], "b"))
    sim.run()
    assert p1.triggered and p2.triggered
    t_a = finish["a"][0] - start
    t_b = finish["b"][0] - start
    # Fair sharing: both finish within 50% of each other.
    assert abs(t_a - t_b) < 0.5 * max(t_a, t_b)
    # Results stay correct under concurrency.
    for tag, (_, result) in finish.items():
        assert len(result.rows()) == 32


# --- a stream reads the table as it stood when the stream started ----------------

def _run_midway(client, make_proc):
    """Time ``make_proc()`` warm, start it once more and run the loop
    halfway through; returns the process, with some of its response
    packets landed and some still to come."""
    sim, qp = client.sim, client.connection.qp
    for _ in range(2):
        start = sim.now
        sim.run_process(make_proc())
    took, landed = sim.now - start, qp.responses_received
    proc = sim.process(make_proc())
    sim.run(until=sim.now + took / 2)
    assert not proc.triggered and qp.responses_received > landed
    return proc


def _overwrite(client, table, schema):
    """Land other rows in ``table``'s pages now, as a write's DRAM step
    does."""
    other = schema.to_bytes(make_rows(schema, table.num_rows, seed=99))
    client.node.mmu.write(client.connection.domain, table.vaddr, other)


def _free_and_reuse(client, table, schema):
    """Free ``table`` and land other rows in a table allocated over its
    recycled frames."""
    client.free_table_mem(table)
    reuse = FTable("reuse", schema, table.num_rows)
    client.alloc_table_mem(reuse)
    _overwrite(client, reuse, schema)


_SCANS = {"no_row_operator": Query(),
          "streamed_projection": Query(projection=("a", "c"),
                                       smart_addressing=False),
          "smart_addressing": Query(projection=("a", "c"),
                                    smart_addressing=True)}


@pytest.mark.parametrize("verb", ["raw_read", *_SCANS])
@pytest.mark.parametrize("rewrite", [_overwrite, _free_and_reuse],
                         ids=["overwrite", "free_and_reuse"])
def test_a_stream_reads_the_table_as_it_stood_at_its_start(client, verb,
                                                            rewrite):
    """The node hands a scan a view of the pool, not a copy, wherever the
    view is used up within the callback that took it.  A table rewritten
    mid-stream — in place, or freed and its frames written by the next
    allocation — must still yield the image as it stood when the stream
    started: the raw READ keeps a copy to land, and rows that would alias
    the pool (no row operator copied them) are copied before they are
    released burst by burst.  A stream that still reads a freed table's
    pages fails typed instead."""
    schema = wide_schema(64)
    rows = make_rows(schema, 4096, seed=1)   # 256 KiB: four 64 KiB pages
    table = upload(client, "T", schema, rows)
    query = _SCANS.get(verb)
    proc = _run_midway(client, lambda: (
        client.table_read_proc(table) if query is None
        else client.far_view_proc(table, query)))
    rewrite(client, table, schema)
    client.sim.run()
    if rewrite is _free_and_reuse:
        assert not proc.ok and isinstance(proc.value, TranslationFault)
        return
    if query is None:
        assert proc.value == schema.to_bytes(rows)
        return
    got = proc.value.rows()
    assert len(got) == len(rows)
    for name in query.projection or schema.names:
        np.testing.assert_array_equal(got[name], rows[name])
