"""Grouping operators: distinct, group-by + aggregation, standalone aggregates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OperatorError, QueryError
from repro.common.records import default_schema
from repro.operators.aggregate import (
    Accumulator,
    AggregateSpec,
    StandaloneAggregateOperator,
)
from repro.operators.distinct import DistinctOperator
from repro.operators.groupby import GroupByOperator


def make_batch(values_a, values_b=None):
    schema = default_schema()
    batch = schema.empty(len(values_a))
    batch["a"] = values_a
    if values_b is not None:
        batch["b"] = values_b
    return schema, batch


# --- AggregateSpec / Accumulator ----------------------------------------------------

def test_spec_default_alias():
    assert AggregateSpec("sum", "b").alias == "sum_b"
    assert AggregateSpec("count", "*").alias == "count_star"


def test_spec_rejects_unknown_func():
    with pytest.raises(QueryError):
        AggregateSpec("median", "a")


def test_spec_rejects_char_column():
    from repro.common.records import string_schema
    spec = AggregateSpec("sum", "s")
    with pytest.raises(QueryError):
        spec.validate(string_schema(32))


def test_accumulator_updates():
    acc = Accumulator(1)
    for v in (3.0, 1.0, 2.0):
        acc.update((v,))
    spec_sum = AggregateSpec("sum", "x")
    spec_min = AggregateSpec("min", "x")
    spec_max = AggregateSpec("max", "x")
    spec_avg = AggregateSpec("avg", "x")
    spec_count = AggregateSpec("count", "*")
    assert acc.result(spec_sum, 0) == 6.0
    assert acc.result(spec_min, 0) == 1.0
    assert acc.result(spec_max, 0) == 3.0
    assert acc.result(spec_avg, 0) == 2.0
    assert acc.result(spec_count, 0) == 3


def test_empty_accumulator_result_raises():
    with pytest.raises(OperatorError):
        Accumulator(1).result(AggregateSpec("sum", "x"), 0)


# --- standalone aggregation -------------------------------------------------------------

def test_standalone_aggregate_single_row_at_flush():
    schema, batch = make_batch([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
    op = StandaloneAggregateOperator([
        AggregateSpec("count", "*"),
        AggregateSpec("sum", "a"),
        AggregateSpec("min", "b"),
        AggregateSpec("max", "b"),
        AggregateSpec("avg", "a"),
    ])
    out_schema = op.bind(schema)
    assert len(op.process(batch)) == 0  # nothing while streaming
    row = op.flush()
    assert len(row) == 1
    assert row["count_star"][0] == 4
    assert row["sum_a"][0] == 10
    assert row["min_b"][0] == 1.0
    assert row["max_b"][0] == 4.0
    assert row["avg_a"][0] == pytest.approx(2.5)
    assert out_schema.row_width == 40


def test_standalone_aggregate_multiple_batches():
    schema, batch1 = make_batch([1, 2])
    _, batch2 = make_batch([3, 4])
    op = StandaloneAggregateOperator([AggregateSpec("sum", "a")])
    op.bind(schema)
    op.process(batch1)
    op.process(batch2)
    assert op.flush()["sum_a"][0] == 10


def test_standalone_aggregate_empty_input():
    schema, _ = make_batch([])
    op = StandaloneAggregateOperator([AggregateSpec("sum", "a")])
    op.bind(schema)
    assert len(op.flush()) == 0


def test_standalone_aggregate_validation():
    with pytest.raises(OperatorError):
        StandaloneAggregateOperator([])
    schema, _ = make_batch([1])
    dup = StandaloneAggregateOperator(
        [AggregateSpec("sum", "a", alias="x"), AggregateSpec("min", "a", alias="x")])
    with pytest.raises(OperatorError):
        dup.bind(schema)


# --- distinct -----------------------------------------------------------------------------

def test_distinct_drops_duplicates():
    schema, batch = make_batch([1, 2, 1, 3, 2, 1])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out = op.process(batch)
    assert sorted(out["a"].tolist()) == [1, 2, 3]
    assert op.duplicates_dropped == 3
    assert op.distinct_seen == 3


def test_distinct_across_batches():
    schema, batch1 = make_batch([1, 2])
    _, batch2 = make_batch([2, 3])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out1 = op.process(batch1)
    out2 = op.process(batch2)
    assert sorted(np.concatenate([out1, out2])["a"].tolist()) == [1, 2, 3]


def test_distinct_defaults_to_all_columns():
    schema, batch = make_batch([1, 1], [1.0, 2.0])
    op = DistinctOperator()
    op.bind(schema)
    out = op.process(batch)
    assert len(out) == 2  # rows differ in column b


def test_distinct_streaming_emits_first_occurrence():
    schema, batch = make_batch([5, 5, 6])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out = op.process(batch)
    assert out["a"].tolist() == [5, 6]


def test_distinct_overflow_contract():
    """With a tiny table, overflow keys are emitted and reported."""
    schema, batch = make_batch(list(range(100)))
    op = DistinctOperator(["a"], ways=1, slots_per_way=16, max_kicks=2,
                          lru_depth_per_way=2)
    op.bind(schema)
    out = op.process(batch)
    # All 100 distinct values must be emitted exactly once (first sight).
    assert sorted(out["a"].tolist()) == list(range(100))
    assert op.overflow_count > 0
    keys = op.drain_overflow_keys()
    assert len(keys) == op.overflow_count
    assert op.drain_overflow_keys() == []


def test_distinct_duplicates_of_overflowed_key_leak_and_client_dedups():
    """Overflowed keys can be re-emitted — exactly the paper's contract:
    the client deduplicates the overflow in software."""
    schema, _ = make_batch([])
    op = DistinctOperator(["a"], ways=1, slots_per_way=4, max_kicks=1,
                          lru_depth_per_way=1)
    op.bind(schema)
    emitted = []
    for chunk in ([list(range(32))], [list(range(32))]):
        _, batch = make_batch(chunk[0])
        emitted.extend(op.process(batch)["a"].tolist())
    # Software dedup restores exactness.
    assert sorted(set(emitted)) == list(range(32))


def test_distinct_validates_columns():
    schema, _ = make_batch([1])
    op = DistinctOperator(["nope"])
    with pytest.raises(QueryError):
        op.bind(schema)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=200))
def test_distinct_property_exact_when_not_overflowing(values):
    schema, batch = make_batch(values)
    op = DistinctOperator(["a"])  # default large table: no overflow
    op.bind(schema)
    out = op.process(batch)
    assert sorted(out["a"].tolist()) == sorted(set(values))
    assert op.overflow_count == 0


# --- group by ---------------------------------------------------------------------------------

def test_groupby_sum():
    """The paper's §6.5 query: SELECT S.a, SUM(S.b) FROM S GROUP BY S.a."""
    schema, batch = make_batch([1, 2, 1, 2, 3], [10.0, 20.0, 5.0, 1.0, 7.0])
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")])
    out_schema = op.bind(schema)
    assert out_schema.names == ("a", "sum_b")
    assert len(op.process(batch)) == 0  # nothing during streaming (§5.4)
    result = op.flush()
    got = dict(zip(result["a"].tolist(), result["sum_b"].tolist()))
    assert got == {1: 15.0, 2: 21.0, 3: 7.0}


def test_groupby_flush_preserves_insertion_order():
    schema, batch = make_batch([3, 1, 2, 1], [1.0, 1.0, 1.0, 1.0])
    op = GroupByOperator(["a"], [AggregateSpec("count", "*")])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    assert result["a"].tolist() == [3, 1, 2]


def test_groupby_multiple_aggregates():
    schema, batch = make_batch([1, 1, 2], [4.0, 6.0, 10.0])
    op = GroupByOperator(["a"], [
        AggregateSpec("count", "*"),
        AggregateSpec("avg", "b"),
        AggregateSpec("min", "b"),
    ])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    by_key = {int(r["a"]): r for r in result}
    assert by_key[1]["count_star"] == 2
    assert by_key[1]["avg_b"] == pytest.approx(5.0)
    assert by_key[2]["min_b"] == 10.0


def test_groupby_multi_key():
    schema = default_schema()
    batch = schema.empty(4)
    batch["a"] = [1, 1, 2, 1]
    batch["c"] = [7, 8, 7, 7]
    batch["b"] = [1.0, 1.0, 1.0, 1.0]
    op = GroupByOperator(["a", "c"], [AggregateSpec("count", "*")])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    counts = {(int(r["a"]), int(r["c"])): int(r["count_star"]) for r in result}
    assert counts == {(1, 7): 2, (1, 8): 1, (2, 7): 1}


def test_groupby_flush_cycles_scale_with_groups():
    schema, batch = make_batch(list(range(64)), [1.0] * 64)
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")])
    op.bind(schema)
    op.process(batch)
    assert op.flush_cycles() == 4 * 64


def test_groupby_overflow_groups_merge_exactly():
    """Client-side merge of overflow accumulators restores exact results."""
    n = 200
    schema, batch = make_batch(list(range(n)), [float(i) for i in range(n)])
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")],
                         ways=1, slots_per_way=64, max_kicks=2)
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    merged = {int(r["a"]): float(r["sum_b"]) for r in result}
    key_schema = schema.project(["a"])
    for key_bytes, acc in op.drain_overflow_groups().items():
        key = int(key_schema.from_bytes(key_bytes)["a"][0])
        assert key not in merged
        merged[key] = acc.result(AggregateSpec("sum", "b"), 0)
    assert merged == {i: float(i) for i in range(n)}


def test_groupby_validation():
    schema, _ = make_batch([1])
    with pytest.raises(OperatorError):
        GroupByOperator([], [AggregateSpec("sum", "b")])
    with pytest.raises(OperatorError):
        GroupByOperator(["a"], [])
    clash = GroupByOperator(["a"], [AggregateSpec("sum", "b", alias="a")])
    with pytest.raises(OperatorError):
        clash.bind(schema)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10),
                          st.integers(min_value=-100, max_value=100)),
                min_size=1, max_size=100))
def test_groupby_matches_python_dict_oracle(rows):
    keys = [k for k, _ in rows]
    vals = [float(v) for _, v in rows]
    schema, batch = make_batch(keys, vals)
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b"),
                                 AggregateSpec("count", "*")])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    got = {int(r["a"]): (float(r["sum_b"]), int(r["count_star"]))
           for r in result}
    expected = {}
    for k, v in zip(keys, vals):
        s, c = expected.get(k, (0.0, 0))
        expected[k] = (s + v, c + 1)
    assert got == expected
