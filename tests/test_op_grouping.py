"""Grouping operators: distinct, group-by + aggregation, standalone aggregates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OperatorError, QueryError
from repro.common.records import Schema, default_schema, key_image
from repro.operators.aggregate import (
    Accumulator,
    AggregateSpec,
    StandaloneAggregateOperator,
    accumulator_rows,
    batch_accumulate,
    value_columns,
)
from repro.operators.cuckoo import CuckooHashTable
from repro.operators.distinct import DistinctOperator
from repro.operators.groupby import GroupByOperator
from repro.operators.lru_cache import ShiftRegisterLru


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
    _, batch = make_batch([0, 0, 0], [3.0, 1.0, 2.0])
    acc = Accumulator(1)
    for row in range(3):
        batch_accumulate(acc, batch[row:row + 1], ["b"])
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
    assert len(op.process(batch)[0]) == 0  # nothing while streaming
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


@pytest.mark.parametrize("burst", [0, 1, 2])
def test_standalone_min_max_take_a_nan_from_any_burst(burst):
    """The reference's global MIN/MAX is ``col.min()`` over the whole
    column, so a NaN wins wherever it sits; ``lo < current`` is false on
    a NaN burst minimum and used to drop that burst's min *and* max."""
    values = 10.0 + np.arange(768) % 7
    values[256 * burst + 40:256 * burst + 43] = [np.nan, 0.5, 99.0]
    schema, batch = make_batch(np.arange(768), values)
    op = StandaloneAggregateOperator([AggregateSpec("min", "b"),
                                      AggregateSpec("max", "b"),
                                      AggregateSpec("min", "a")])
    op.bind(schema)
    for start in range(0, 768, 256):
        op.process(batch[start:start + 256])
    row = op.flush()
    assert np.isnan(row["min_b"][0]) and np.isnan(row["max_b"][0])
    assert row["min_a"][0] == 0


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
    out = op.process(batch)[0]
    assert sorted(out["a"].tolist()) == [1, 2, 3]
    assert op.duplicates_dropped == 3
    assert op.distinct_seen == 3


def test_distinct_across_batches():
    schema, batch1 = make_batch([1, 2])
    _, batch2 = make_batch([2, 3])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out1 = op.process(batch1)[0]
    out2 = op.process(batch2)[0]
    assert sorted(np.concatenate([out1, out2])["a"].tolist()) == [1, 2, 3]


def test_distinct_defaults_to_all_columns():
    schema, batch = make_batch([1, 1], [1.0, 2.0])
    op = DistinctOperator()
    op.bind(schema)
    out = op.process(batch)[0]
    assert len(out) == 2  # rows differ in column b


def test_distinct_streaming_emits_first_occurrence():
    schema, batch = make_batch([5, 5, 6])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out = op.process(batch)[0]
    assert out["a"].tolist() == [5, 6]


def test_distinct_overflow_contract():
    """With a tiny table, overflow keys are emitted and reported."""
    schema, batch = make_batch(list(range(100)))
    op = DistinctOperator(["a"], ways=1, slots_per_way=16, max_kicks=2,
                          lru_depth_per_way=2)
    op.bind(schema)
    out = op.process(batch)[0]
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
        emitted.extend(op.process(batch)[0]["a"].tolist())
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
    out = op.process(batch)[0]
    assert sorted(out["a"].tolist()) == sorted(set(values))
    assert op.overflow_count == 0


# --- group by ---------------------------------------------------------------------------------

def test_groupby_sum():
    """The paper's §6.5 query: SELECT S.a, SUM(S.b) FROM S GROUP BY S.a."""
    schema, batch = make_batch([1, 2, 1, 2, 3], [10.0, 20.0, 5.0, 1.0, 7.0])
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")])
    out_schema = op.bind(schema)
    assert out_schema.names == ("a", "sum_b")
    assert len(op.process(batch)[0]) == 0  # nothing during streaming (§5.4)
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


# --- pinned state: the per-batch operators against the per-row loops they replaced -------

class _LoopAccumulator:
    """One group's running aggregates, updated a tuple at a time."""

    def __init__(self, lanes):
        self.count = 0
        self.sums = [0.0] * lanes
        self.mins = [None] * lanes
        self.maxs = [None] * lanes

    def update(self, values):
        self.count += 1
        for i, v in enumerate(values):
            self.sums[i] += float(v)
            if self.mins[i] is None or v < self.mins[i]:
                self.mins[i] = v
            if self.maxs[i] is None or v > self.maxs[i]:
                self.maxs[i] = v

    result = Accumulator.result


class _LoopDistinct:
    """DISTINCT as it ran before it went per batch: LRU probe, resident
    mirror and cuckoo put once per tuple."""

    def __init__(self, key_columns, ways, slots_per_way, max_kicks,
                 lru_depth_per_way):
        self.key_columns = key_columns
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        self.duplicates_dropped = self.overflow_count = 0
        self.resident = set()

    def process(self, batch):
        image = key_image(batch, self.key_columns)
        slots = self.table.way_slots(image.data,
                                     image.dtype.itemsize).T.tolist()
        keep = np.zeros(len(batch), dtype=bool)
        for i, key in enumerate(image.tolist()):
            if self.lru.lookup_or_insert(key) or key in self.resident:
                self.duplicates_dropped += 1
                continue
            keep[i] = True
            self.resident.add(key)
            if not self.table.put(key, True, slots[i]):
                self.overflow_count += 1
                self.resident.discard(self.table.overflow[-1][0])
        return batch[keep]


class _LoopGroupBy:
    """GROUP BY as it ran before it went per batch: one accumulator object
    per key, moved from the resident mirror to the overflow area by an
    eviction, updated once per tuple."""

    def __init__(self, schema, key_columns, aggregates, ways, slots_per_way,
                 max_kicks, lru_depth_per_way):
        self.key_columns, self.aggregates = key_columns, aggregates
        self.lanes = value_columns(aggregates)
        self.out_schema = Schema([schema.column(k) for k in key_columns]
                                 + [s.output_column(schema)
                                    for s in aggregates])
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        self.queue, self.mirror, self.overflow = [], {}, {}

    def process(self, batch):
        image = key_image(batch, self.key_columns)
        slots = self.table.way_slots(image.data,
                                     image.dtype.itemsize).T.tolist()
        values = [batch[name].tolist() for name in self.lanes]
        for i, key in enumerate(image.tolist()):
            row = tuple(lane[i] for lane in values)
            self.lru.lookup_or_insert(key)
            if key in self.overflow:
                self.overflow[key].update(row)
                continue
            acc = self.mirror.get(key)
            if acc is None:
                acc = self.mirror[key] = _LoopAccumulator(len(self.lanes))
                self.queue.append(key)
                if not self.table.put(key, acc, slots[i]):
                    for evicted, spilled in self.table.drain_overflow():
                        self.overflow[evicted] = spilled
                        del self.mirror[evicted]
            acc.update(row)

    def flush(self):
        return accumulator_rows(
            self.out_schema, self.key_columns, self.aggregates,
            {key: self.mirror[key] for key in self.queue
             if key in self.mirror})


_TINY_TABLES = st.tuples(st.integers(1, 3), st.integers(2, 40),
                         st.integers(1, 5), st.integers(1, 3))
_TABLES = st.one_of(_TINY_TABLES, st.just((4, 16_384, 32, 4)))
_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                           float("-inf"), 1e300, -1e300, 0.5, -2.25, 3.0,
                           1024.125])
_INTS = st.sampled_from([2**62, 2**62 - 1, 2**62 + 1, -2**62, -2**62 + 3,
                         0, 1, -1])
_ROWS = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2),
                           _FLOATS, _INTS), max_size=120)
_SPECS = [AggregateSpec("count", "*"), AggregateSpec("count", "b"),
          AggregateSpec("sum", "b"), AggregateSpec("min", "b"),
          AggregateSpec("max", "b"), AggregateSpec("avg", "b"),
          # No sum(c): two 2**62 leave int64, which the loop's emitter
          # refuses and an array cast wraps; avg(c) folds the same sums.
          AggregateSpec("min", "c"), AggregateSpec("max", "c"),
          AggregateSpec("avg", "c")]


def _split(draw, rows):
    """``rows`` cut into batches at drawn points; a repeated cut is an
    empty batch."""
    schema = default_schema()
    table = schema.empty(len(rows))
    for name, column in zip("adbc", zip(*rows)):
        table[name] = column
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    return schema, [table[lo:hi]
                    for lo, hi in zip([0] + cuts, cuts + [len(rows)])]


def _table_state(table):
    return ([{slot: table._keys[entry] for slot, entry in way.items()}
             for way in table._tables], table.kicks, table.size)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_distinct_state_equals_the_per_row_loop(data):
    """After every batch the per-batch DISTINCT has emitted the loop's
    bytes and holds the loop's state: where every key sits, kicks, the
    overflow buffer in order, the register and the counters — through the
    first overflow (the hand-over to the per-row path) and beyond."""
    geometry = data.draw(_TABLES)
    key_columns = data.draw(st.sampled_from([["a"], ["a", "d"]]))
    schema, batches = _split(data.draw, data.draw(_ROWS))
    op = DistinctOperator(key_columns, *geometry)
    op.bind(schema)
    loop = _LoopDistinct(key_columns, *geometry)
    for batch in batches:
        assert op.process(batch)[0].tobytes() == loop.process(batch).tobytes()
        assert _table_state(op.table) == _table_state(loop.table)
        assert op.table.overflow == loop.table.overflow
        assert op.lru.resident == loop.lru.resident
        assert set(op._resident) == loop.resident
        assert ((op.duplicates_dropped, op.overflow_count, op.distinct_seen)
                == (loop.duplicates_dropped, loop.overflow_count,
                    loop.table.size))
        assert op.rows_in - op.rows_out == op.duplicates_dropped
    assert op.drain_overflow_keys() == [k for k, _ in loop.table.overflow]
    assert op.drain_overflow_keys() == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_groupby_state_equals_the_per_row_loop(data):
    """After every batch the columnar GROUP BY holds the loop's state —
    where every key sits, kicks, the overflow order, which groups spilled,
    the register, the group counters — and at the end it flushes the
    loop's bytes and drains the loop's overflow groups, whichever of the
    two comes first."""
    geometry = data.draw(_TABLES)
    key_columns = data.draw(st.sampled_from([["a"], ["a", "d"]]))
    aggregates = data.draw(st.lists(st.sampled_from(_SPECS), min_size=1,
                                    max_size=4, unique=True))
    schema, batches = _split(data.draw, data.draw(_ROWS))
    op = GroupByOperator(key_columns, aggregates, *geometry)
    op.bind(schema)
    loop = _LoopGroupBy(schema, key_columns, aggregates, *geometry)
    with np.errstate(invalid="ignore", over="ignore"):
        for batch in batches:
            assert len(op.process(batch)[0]) == 0
            loop.process(batch)
            assert _table_state(op.table) == _table_state(loop.table)
            assert [k for k, _ in op.table.overflow] == list(loop.overflow)
            assert ({key for key, gid in op._ids.items()
                     if op._state["spilled"][gid]} == set(loop.overflow))
            assert op.lru.resident == loop.lru.resident
            assert op.flush_cycles() == 4 * len(loop.queue)
            assert op.num_groups == len(loop.table) + len(loop.overflow)

        def drain():
            groups = op.drain_overflow_groups()
            assert list(groups) == list(loop.overflow)
            lanes = value_columns(aggregates)
            for key, acc in groups.items():
                want = loop.overflow[key]
                assert acc.count == want.count
                for spec in aggregates:
                    lane = (lanes.index(spec.column)
                            if spec.column in lanes else 0)
                    assert (np.array(acc.result(spec, lane)).tobytes()
                            == np.array(want.result(spec, lane)).tobytes())
            assert op.drain_overflow_groups() == {}

        drain_first = data.draw(st.booleans())
        if drain_first:
            drain()
        assert op.flush().tobytes() == loop.flush().tobytes()
        if not drain_first:
            drain()
