"""Small-table join operator (§7 extension): unit + end-to-end tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sw_ops import software_join
from repro.common.config import FarviewConfig, MemoryConfig, OperatorStackConfig
from repro.common.errors import (
    JoinBuildOverflowError,
    OperatorError,
    PipelineCompilationError,
    QueryError,
)
from repro.common.records import Column, Schema, default_schema
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.pipeline_compiler import compile_query
from repro.core.query import JoinSpec, Query
from repro.core.table import FTable
from repro.operators.cuckoo import CuckooHashTable
from repro.operators.join import SmallTableJoinOperator
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import make_rows

KB = 1024
MB = 1024 * KB

DIM_SCHEMA = Schema([
    Column("id", "int64"),
    Column("rate", "float64"),
    Column("zone", "int64"),
])


def make_dim(n=16):
    rows = DIM_SCHEMA.empty(n)
    rows["id"] = np.arange(n)
    rows["rate"] = np.arange(n) * 0.1
    rows["zone"] = np.arange(n) % 4
    return rows


def make_fact(n=100, key_mod=20):
    schema = default_schema()
    rows = schema.empty(n)
    rows["a"] = np.arange(n) % key_mod  # join key; some keys miss the dim
    rows["b"] = np.arange(n) * 1.0
    return schema, rows


# --- operator unit tests -------------------------------------------------------

def test_join_matches_nested_loop_oracle():
    dim = make_dim(16)
    schema, fact = make_fact(100, key_mod=20)
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate", "zone"])
    op.load_build(dim)
    out_schema = op.bind(schema)
    out = op.process(fact)[0]
    # Oracle: keys 0..15 match, 16..19 do not.
    expected = [(int(r["a"]), float(r["b"])) for r in fact if r["a"] < 16]
    assert len(out) == len(expected)
    for row, (key, b) in zip(out, expected):
        assert int(row["a"]) == key
        assert float(row["b"]) == b
        assert float(row["rate"]) == pytest.approx(key * 0.1)
        assert int(row["zone"]) == key % 4
    assert out_schema.names[-2:] == ("rate", "zone")


def test_join_unmatched_probe_dropped():
    dim = make_dim(4)
    schema, fact = make_fact(10, key_mod=10)
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"])
    op.load_build(dim)
    op.bind(schema)
    out = op.process(fact)[0]
    assert set(out["a"].tolist()) == {0, 1, 2, 3}


def test_join_duplicate_build_key_rejected():
    dim = make_dim(4)
    dim["id"] = [1, 1, 2, 3]
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"])
    with pytest.raises(OperatorError, match="unique"):
        op.load_build(dim)
    # The row named is the first one that repeats an earlier key — not the
    # key's first holder, not a later repeat.
    dim = make_dim(8)
    dim["id"] = [5, 6, 7, 6, 5, 5, 8, 7]
    for join in (
            lambda: SmallTableJoinOperator(
                DIM_SCHEMA, "id", "a", ["rate"]).load_build(dim),
            lambda: software_join(make_fact(4)[1], default_schema(), dim,
                                  DIM_SCHEMA, "id", "a", ["rate"])):
        with pytest.raises(OperatorError, match=r"key at row 3:"):
            join()


def _tiny_join():
    # ids 0..15 into 2 ways x 4 slots with 2 kicks: row 7 is the first
    # whose eviction chain runs out.
    return SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"],
                                  ways=2, slots_per_way=4, max_kicks=2)


def test_join_overflow_before_duplicate_raises_overflow():
    dim = make_dim(16)
    dim["id"][8] = 0                       # a repeat, one row too late
    with pytest.raises(JoinBuildOverflowError, match="does not fit"):
        _tiny_join().load_build(dim)
    dim = make_dim(16)
    dim["id"][7] = 0                       # the overflowing row itself
    with pytest.raises(OperatorError, match=r"key at row 7:"):
        _tiny_join().load_build(dim)


def test_join_duplicate_before_overflow_raises_duplicate():
    dim = make_dim(16)
    dim["id"][3] = 0                       # rows 0..2 fit; 16 rows cannot
    with pytest.raises(OperatorError, match=r"key at row 3:") as excinfo:
        _tiny_join().load_build(dim)
    assert not isinstance(excinfo.value, JoinBuildOverflowError)


def test_join_repeat_before_and_after_the_first_eviction_chain():
    # In _tiny_join's geometry ids 0..5 each find a free slot and id 6 is
    # the first row that evicts (its chain fits); id 7's runs out.
    op = _tiny_join()
    op.load_build(make_dim(7))
    assert (op.table.size, op.table.kicks) == (7, 1)
    for row in (5, 6, 7):                  # up to the overflowing row
        dim = make_dim(16)
        dim["id"][row] = 2
        with pytest.raises(OperatorError, match=f"key at row {row}:") as exc:
            _tiny_join().load_build(dim)
        assert not isinstance(exc.value, JoinBuildOverflowError)


def _loop_build_error(geometry, dim):
    """The build-side refusal of one ``put`` per row, in row order, up to
    the first repeated key: the error the bulk load must raise."""
    table = CuckooHashTable(*geometry)
    seen = set()
    for i, key in enumerate(dim["id"].tolist()):
        if key in seen:
            return OperatorError, f"key at row {i}:"
        seen.add(key)
        if not table.put(int(key).to_bytes(8, "little", signed=True), i):
            return JoinBuildOverflowError, "does not fit"
    return None


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(1, 3)),
       st.lists(st.integers(0, 30), max_size=24))
def test_join_build_refusal_equals_the_per_row_loop(geometry, ids):
    """Tiny tables, drawn ids with repeats anywhere: the bulk load refuses
    with the per-row loop's typed error, naming the same row, or loads
    every row as the loop does."""
    dim = make_dim(len(ids))
    dim["id"] = ids
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"], *geometry)
    want = _loop_build_error(geometry, dim)
    if want is None:
        op.load_build(dim)
        assert op.build_rows_loaded == len(ids)
    else:
        with pytest.raises(want[0], match=want[1]) as exc:
            op.load_build(dim)
        assert type(exc.value) is want[0]


def test_join_empty_and_single_row_builds():
    schema, fact = make_fact(10, key_mod=3)
    for n in (0, 1):
        op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"])
        op.load_build(make_dim(n))
        owner = op.table.owner_image()
        assert owner[owner >= 0].tolist() == list(range(n))
        op.bind(schema)
        out = op.process(fact)[0]
        assert out["a"].tolist() == [0] * (4 if n else 0)
        assert out["rate"].tolist() == [0.0] * (4 if n else 0)


def test_join_build_overflow_rejected():
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"],
                                ways=1, slots_per_way=4, max_kicks=1)
    dim = make_dim(16)
    with pytest.raises(OperatorError, match="does not fit"):
        op.load_build(dim)


def test_join_probe_before_build_rejected():
    schema, fact = make_fact(4)
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"])
    op.bind(schema)
    with pytest.raises(OperatorError, match="before the build"):
        op.process(fact)


def test_join_key_type_mismatch_rejected():
    schema, _ = make_fact(1)
    op = SmallTableJoinOperator(DIM_SCHEMA, "rate", "a", ["zone"])
    with pytest.raises(OperatorError, match="mismatch"):
        op.bind(schema)


def test_join_column_name_collision_prefixed():
    dim_schema = Schema([Column("id", "int64"), Column("b", "float64")])
    dim = dim_schema.empty(2)
    dim["id"] = [0, 1]
    dim["b"] = [10.0, 20.0]
    schema, fact = make_fact(4, key_mod=2)
    op = SmallTableJoinOperator(dim_schema, "id", "a", ["b"])
    op.load_build(dim)
    out_schema = op.bind(schema)
    assert "build_b" in out_schema.names
    out = op.process(fact)[0]
    assert float(out["build_b"][0]) == 10.0
    assert float(out["b"][0]) == fact["b"][0]


def test_join_validation():
    with pytest.raises(OperatorError):
        SmallTableJoinOperator(DIM_SCHEMA, "id", "a", [])
    with pytest.raises(OperatorError):
        SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["id"])


# --- operator == client kernel == nested loop, on raw key bytes ------------------

def _f8(bits: int) -> bytes:
    return struct.pack("<Q", bits)


#: Per key type: the column and a pool of raw key images.  Keys match on
#: bytes: 0.0 != -0.0, each NaN equals only its own bit pattern, bytes
#: after an embedded NUL count and trailing NULs are padding.
KEY_POOLS = {
    "int64": (Column("k", "int64"), [
        struct.pack("<q", v) for v in (0, 1, -1, 7, 2**62, -2**63, 256)]),
    "float64": (Column("k", "float64"), [
        _f8(0x0000000000000000), _f8(0x8000000000000000),     # 0.0, -0.0
        _f8(0x7FF8000000000000), _f8(0x7FF8000000000001),     # two NaNs
        _f8(0xFFF8000000000000), _f8(0x3FF8000000000000),     # -NaN, 1.5
        _f8(0x7FF0000000000000)]),                            # inf
    "char": (Column("k", "char", 6), [
        key.ljust(6, b"\x00") for key in (
            b"", b"a", b"a\x00b", b"a\x00c", b"ab", b"abcdef",
            b"a\x00\x00\x00\x00z")]),
}


def _raw_keys(rows, column):
    width = rows.dtype[column].itemsize
    raw = np.ascontiguousarray(rows[column]).tobytes()
    return [raw[i * width:(i + 1) * width] for i in range(len(rows))]


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(KEY_POOLS)),
       build_picks=st.lists(st.integers(0, 6), unique=True, max_size=7),
       probe_picks=st.lists(st.integers(0, 6), max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=4))
def test_join_equals_client_kernel_and_nested_loop(kind, build_picks,
                                                   probe_picks, cuts):
    key_col, pool = KEY_POOLS[kind]
    key_dtype = key_col.dtype
    # Both sides have a column "v": the payload one comes out as build_v.
    build_schema = Schema([Column("id", key_col.kind, key_col.width),
                           Column("v", "float64"), Column("zone", "int64")])
    probe_schema = Schema([Column("seq", "int64"), key_col,
                           Column("v", "float64")])
    build = build_schema.empty(len(build_picks))
    build["id"] = np.frombuffer(
        b"".join(pool[i] for i in build_picks), dtype=key_dtype)
    build["v"] = np.arange(len(build)) + 0.25
    build["zone"] = np.arange(len(build)) * 11
    probe = probe_schema.empty(len(probe_picks))
    probe["seq"] = np.arange(len(probe))
    probe["k"] = np.frombuffer(
        b"".join(pool[i] for i in probe_picks), dtype=key_dtype)
    probe["v"] = -np.arange(len(probe)) - 0.5
    assert _raw_keys(build, "id") == [pool[i] for i in build_picks]
    assert _raw_keys(probe, "k") == [pool[i] for i in probe_picks]

    op = SmallTableJoinOperator(build_schema, "id", "k", ["v", "zone"],
                                ways=4, slots_per_way=8)
    op.load_build(build)
    out_schema = op.bind(probe_schema)
    assert out_schema.names == ("seq", "k", "v", "build_v", "zone")
    bounds = [0, *sorted(min(c, len(probe)) for c in cuts), len(probe)]
    parts = [op.process(probe[lo:hi])[0] for lo, hi in zip(bounds, bounds[1:])]
    offloaded = np.concatenate(parts)

    shipped = software_join(probe, probe_schema, build, build_schema,
                            "id", "k", ["v", "zone"])

    build_keys = _raw_keys(build, "id")
    pairs = [(i, j) for i, pkey in enumerate(_raw_keys(probe, "k"))
             for j, bkey in enumerate(build_keys) if pkey == bkey]
    oracle = out_schema.empty(len(pairs))
    for row, (i, j) in enumerate(pairs):
        for name in probe_schema.names:
            oracle[name][row] = probe[name][i]
        oracle["build_v"][row] = build["v"][j]
        oracle["zone"][row] = build["zone"][j]

    assert offloaded.dtype == shipped.dtype == oracle.dtype
    assert offloaded.tobytes() == oracle.tobytes()
    assert shipped.tobytes() == oracle.tobytes()
    assert (op.build_rows_loaded, op.rows_in, op.rows_out,
            op.probe_matches) == (len(build), len(probe), len(pairs),
                                  len(pairs))


# --- query / compiler integration ----------------------------------------------------

def test_joinspec_validation():
    with pytest.raises(QueryError):
        JoinSpec(None, "id", "a", ())


def test_query_join_with_smart_addressing_rejected():
    dim_table = FTable("dim", DIM_SCHEMA, 4)
    with pytest.raises(QueryError):
        Query(join=JoinSpec(dim_table, "id", "a", ("rate",)),
              smart_addressing=True)


def test_compile_rejects_oversized_build():
    config = FarviewConfig(
        operator_stack=OperatorStackConfig(cuckoo_slots=16, cuckoo_tables=1))
    dim_table = FTable("dim", DIM_SCHEMA, 1000)
    fact_table = FTable("fact", default_schema(), 10)
    query = Query(join=JoinSpec(dim_table, "id", "a", ("rate",)))
    with pytest.raises(PipelineCompilationError, match="capacity"):
        compile_query(query, fact_table, config)


# --- end-to-end over the node -----------------------------------------------------------

@pytest.fixture
def client():
    config = FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=8 * MB,
                            page_size=64 * KB))
    sim = Simulator()
    node = FarviewNode(sim, config)
    c = FarviewClient(node)
    c.open_connection()
    return c


def test_offloaded_join_end_to_end(client, monkeypatch):
    join_ops = []
    load_build = SmallTableJoinOperator.load_build

    def spy(self, rows):
        join_ops.append(self)
        load_build(self, rows)

    monkeypatch.setattr(SmallTableJoinOperator, "load_build", spy)
    dim = make_dim(16)
    dim_table = FTable("dim", DIM_SCHEMA, len(dim))
    client.alloc_table_mem(dim_table)
    client.table_write(dim_table, dim)

    schema, fact = make_fact(500, key_mod=32)
    fact_table = FTable("fact", schema, len(fact))
    client.alloc_table_mem(fact_table)
    client.table_write(fact_table, fact)

    query = Query(join=JoinSpec(dim_table, "id", "a", ("rate",)),
                  label="dim-join")
    result, elapsed = client.far_view(fact_table, query)
    got = result.rows()
    expected = fact[fact["a"] < 16]
    assert len(got) == len(expected)
    np.testing.assert_array_equal(got["a"], expected["a"])
    np.testing.assert_allclose(got["rate"], expected["a"] * 0.1)
    # Build table bytes were scanned in addition to the probe.
    assert result.report.bytes_scanned >= fact_table.size_bytes
    assert elapsed > 0
    # The operator's counters, as the node and the cost model read them.
    (op,) = join_ops
    assert (op.build_rows_loaded, op.rows_in, op.rows_out,
            op.probe_matches) == (16, 500, 256, 256)
    assert (result.report.rows_in, result.report.rows_out) == (500, 256)


def test_offloaded_join_composes_with_selection_and_projection(client):
    dim = make_dim(8)
    dim_table = FTable("dim", DIM_SCHEMA, len(dim))
    client.alloc_table_mem(dim_table)
    client.table_write(dim_table, dim)

    schema, fact = make_fact(200, key_mod=16)
    fact_table = FTable("fact", schema, len(fact))
    client.alloc_table_mem(fact_table)
    client.table_write(fact_table, fact)

    query = Query(predicate=Compare("a", "<", 12),
                  join=JoinSpec(dim_table, "id", "a", ("rate",)),
                  projection=("a", "rate"))
    result, _ = client.far_view(fact_table, query)
    got = result.rows()
    assert got.dtype.names == ("a", "rate")
    mask = (fact["a"] < 12) & (fact["a"] < 8)
    assert len(got) == int(mask.sum())
