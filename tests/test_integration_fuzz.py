"""Randomized end-to-end integration: offloaded queries vs numpy oracle.

Hypothesis generates random tables and random query fragments (projection,
predicates, distinct, group-by); each is executed through the full
simulated stack — MMU striping, pipeline compilation, packetized
streaming — and the decoded client-side result must equal a straightforward
numpy computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.expr import eval_mask
from repro.common.records import default_schema
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import Query
from repro.core.table import FTable
from repro.operators.aggregate import AggregateSpec
from repro.operators.selection import And, Compare, Or
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * KB

SMALL_CONFIG = FarviewConfig(
    memory=MemoryConfig(channels=2, channel_capacity=4 * MB,
                        page_size=64 * KB))

COLUMNS = ("a", "c", "d")  # int64 columns used by the fuzzer
OPS = ("<", "<=", ">", ">=", "==", "!=")


def _comparisons():
    return st.builds(
        Compare,
        column=st.sampled_from(COLUMNS),
        op=st.sampled_from(OPS),
        value=st.integers(min_value=0, max_value=20))


def _predicates():
    simple = _comparisons()
    combined = st.builds(
        lambda a, b, kind: And(a, b) if kind else Or(a, b),
        simple, simple, st.booleans())
    return st.one_of(simple, combined)


@st.composite
def query_cases(draw):
    num_rows = draw(st.integers(min_value=1, max_value=300))
    predicate = draw(st.none() | _predicates())
    shape = draw(st.sampled_from(["plain", "project", "distinct", "groupby"]))
    projection = None
    distinct = False
    group_by = None
    aggregates = ()
    if shape == "project":
        projection = tuple(draw(st.sets(st.sampled_from(COLUMNS),
                                        min_size=1, max_size=3)))
    elif shape == "distinct":
        projection = ("a",)
        distinct = True
    elif shape == "groupby":
        group_by = ("a",)
        aggregates = (AggregateSpec("sum", "c"), AggregateSpec("count", "*"))
    query = Query(projection=projection, predicate=predicate,
                  distinct=distinct, group_by=group_by,
                  aggregates=aggregates, label="fuzz")
    return num_rows, query


def _make_table(num_rows: int, seed: int):
    schema = default_schema()
    rng = np.random.default_rng(seed)
    rows = schema.empty(num_rows)
    for name in COLUMNS:
        rows[name] = rng.integers(0, 16, num_rows)
    rows["b"] = rng.random(num_rows)
    return schema, rows


def _oracle(rows, query: Query):
    out = rows
    if query.predicate is not None:
        out = out[eval_mask(query.predicate, out)]
    if query.group_by:
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for r in out:
            key = int(r["a"])
            sums[key] = sums.get(key, 0.0) + float(r["c"])
            counts[key] = counts.get(key, 0) + 1
        return {"groups": {k: (sums[k], counts[k]) for k in sums}}
    if query.projection is not None:
        cols = {name: out[name].copy() for name in query.projection}
        if query.distinct:
            seen = set()
            keep = []
            for i in range(len(out)):
                v = int(out["a"][i])
                if v not in seen:
                    seen.add(v)
                    keep.append(i)
            cols = {name: out[name][keep] for name in query.projection}
        return {"columns": cols}
    return {"columns": {name: out[name].copy() for name in rows.dtype.names}}


@settings(max_examples=40, deadline=None)
@given(case=query_cases(), seed=st.integers(min_value=0, max_value=2**16))
def test_offloaded_query_matches_numpy_oracle(case, seed):
    num_rows, query = case
    schema, rows = _make_table(num_rows, seed)
    sim = Simulator()
    node = FarviewNode(sim, SMALL_CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    table = FTable("F", schema, num_rows)
    client.alloc_table_mem(table)
    client.table_write(table, rows)

    result, elapsed = client.far_view(table, query)
    got = result.rows()
    expected = _oracle(rows, query)
    assert elapsed > 0

    if "groups" in expected:
        got_groups = {int(r["a"]): (float(r["sum_c"]), int(r["count_star"]))
                      for r in got}
        assert got_groups.keys() == expected["groups"].keys()
        for key, (total, count) in expected["groups"].items():
            assert got_groups[key][0] == pytest.approx(total)
            assert got_groups[key][1] == count
    else:
        columns = expected["columns"]
        any_col = next(iter(columns))
        assert len(got) == len(columns[any_col])
        for name, values in columns.items():
            np.testing.assert_array_equal(got[name], values)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       num_rows=st.integers(min_value=1, max_value=200))
def test_raw_read_round_trip_fuzz(seed, num_rows):
    """Writing then raw-reading any table returns the exact image."""
    schema, rows = _make_table(num_rows, seed)
    sim = Simulator()
    node = FarviewNode(sim, SMALL_CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    table = FTable("R", schema, num_rows)
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    data, _ = client.table_read(table)
    assert data == schema.to_bytes(rows)
