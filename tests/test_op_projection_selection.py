"""Projection (standard + smart addressing) and selection operators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sql_model import _truth
from repro.common.errors import OperatorError, QueryError
from repro.common.expr import (CMP_OPS, BoolAnd, BoolNot, BoolOr, Cmp, Col,
                               Lit, check_condition, eval_mask, expr_columns)
from repro.common.records import Column, Schema, default_schema, wide_schema
from repro.operators.projection import ProjectionOperator, SmartAddressingPlan
from repro.operators.selection import (
    And,
    Compare,
    Not,
    Or,
    SelectionOperator,
    VectorizedSelectionOperator,
)


def make_batch(n=10):
    schema = default_schema()
    batch = schema.empty(n)
    batch["a"] = np.arange(n)
    batch["b"] = np.arange(n) * 0.5
    batch["c"] = np.arange(n) % 3
    return schema, batch


# --- projection -------------------------------------------------------------------

def test_projection_narrows_columns():
    schema, batch = make_batch()
    op = ProjectionOperator(["a", "c"])
    out_schema = op.bind(schema)
    assert out_schema.names == ("a", "c")
    out = op.process(batch)[0]
    np.testing.assert_array_equal(out["a"], batch["a"])
    np.testing.assert_array_equal(out["c"], batch["c"])
    assert out_schema.row_width == 16


def test_projection_preserves_requested_order():
    schema, batch = make_batch()
    op = ProjectionOperator(["c", "a"])
    out_schema = op.bind(schema)
    assert out_schema.names == ("c", "a")


def test_projection_validation():
    schema, _ = make_batch()
    with pytest.raises(OperatorError):
        ProjectionOperator([])
    with pytest.raises(OperatorError):
        ProjectionOperator(["a", "a"])
    op = ProjectionOperator(["zz"])
    with pytest.raises(QueryError):
        op.bind(schema)


def test_projection_counts_rows():
    schema, batch = make_batch(7)
    op = ProjectionOperator(["a"])
    op.bind(schema)
    op.process(batch)
    assert op.rows_in == 7
    assert op.rows_out == 7


# --- smart addressing --------------------------------------------------------------

def test_smart_addressing_coalesces_contiguous_columns():
    schema = wide_schema(512)  # 64 x int64 columns a, b, c, ...
    plan = SmartAddressingPlan(schema, ["a", "b", "c"])
    assert plan.requests_per_tuple == 1
    assert plan.bytes_per_tuple == 24


def test_smart_addressing_separate_runs():
    schema = wide_schema(512)
    names = schema.names
    plan = SmartAddressingPlan(schema, [names[0], names[10]])
    assert plan.requests_per_tuple == 2
    assert plan.bytes_per_tuple == 16


def test_smart_addressing_request_stream():
    schema = wide_schema(256)
    plan = SmartAddressingPlan(schema, ["a", "b"])
    assert [(run.offset, run.width) for run in plan.runs] == [(0, 16)]
    assert plan.total_bytes(3) == 48


def test_smart_addressing_gather_round_trip():
    schema = wide_schema(256)
    batch = schema.empty(4)
    for i, name in enumerate(schema.names):
        batch[name] = np.arange(4) * 100 + i
    plan = SmartAddressingPlan(schema, ["c", "a"])  # out of byte order
    out = plan.gather(schema.to_bytes(batch), 4)
    np.testing.assert_array_equal(out["a"], batch["a"])
    np.testing.assert_array_equal(out["c"], batch["c"])
    assert out.dtype.names == ("c", "a")


def test_smart_addressing_gather_validates():
    schema = wide_schema(256)
    plan = SmartAddressingPlan(schema, ["a"])
    with pytest.raises(OperatorError):
        plan.gather(schema.to_bytes(schema.empty(2)), 3)  # wrong count


def test_smart_addressing_needs_columns():
    schema = wide_schema(256)
    with pytest.raises(OperatorError):
        SmartAddressingPlan(schema, [])


# --- predicates -----------------------------------------------------------------------

def test_compare_operators():
    schema, batch = make_batch()
    assert eval_mask(Compare("a", "<", 5), batch).sum() == 5
    assert eval_mask(Compare("a", "<=", 5), batch).sum() == 6
    assert eval_mask(Compare("a", ">", 7), batch).sum() == 2
    assert eval_mask(Compare("a", ">=", 7), batch).sum() == 3
    assert eval_mask(Compare("a", "==", 3), batch).sum() == 1
    assert eval_mask(Compare("a", "!=", 3), batch).sum() == 9


def test_compare_rejects_unknown_op():
    with pytest.raises(QueryError):
        Compare("a", "<>", 1)


def test_compare_validates_types():
    schema, _ = make_batch()
    with pytest.raises(QueryError):
        check_condition(Compare("a", "<", "text"), schema)
    with pytest.raises(QueryError):
        check_condition(Compare("a", "<", 1), default_schema()) or \
            check_condition(Compare("zz", "<", 1), schema)


def test_boolean_combinators():
    schema, batch = make_batch()
    p = And(Compare("a", ">=", 2), Compare("a", "<", 5))
    assert eval_mask(p, batch).sum() == 3
    q = Or(Compare("a", "==", 0), Compare("a", "==", 9))
    assert eval_mask(q, batch).sum() == 2
    r = Not(Compare("a", "<", 5))
    assert eval_mask(r, batch).sum() == 5


def test_operator_overloads():
    schema, batch = make_batch()
    p = (Compare("a", ">=", 2) & Compare("a", "<", 5)) | Compare("a", "==", 9)
    assert eval_mask(p, batch).sum() == 4
    assert eval_mask(~p, batch).sum() == 6


def test_predicate_columns():
    p = And(Compare("a", "<", 1), Or(Compare("b", ">", 0.0), Compare("c", "==", 1)))
    assert expr_columns(p) == [Col("a"), Col("b"), Col("c")]


def test_float_predicate():
    schema, batch = make_batch()
    assert eval_mask(Compare("b", ">", 3.14), batch).sum() == 3  # 3.5, 4.0, 4.5


# --- selection operator --------------------------------------------------------------------

def test_selection_filters():
    schema, batch = make_batch()
    op = SelectionOperator(Compare("a", "<", 4))
    assert op.bind(schema) == schema
    out = op.process(batch)[0]
    assert len(out) == 4


def test_selection_multi_column_predicate():
    """The paper's evaluation query: WHERE S.a < X AND S.b < Y (§6.4)."""
    schema, batch = make_batch()
    op = SelectionOperator(Compare("a", "<", 8) & Compare("b", "<", 2.0))
    op.bind(schema)
    out = op.process(batch)[0]
    np.testing.assert_array_equal(out["a"], [0, 1, 2, 3])


def test_selection_bind_validates():
    schema, _ = make_batch()
    op = SelectionOperator(Compare("nope", "<", 1))
    with pytest.raises((OperatorError, QueryError)):
        op.bind(schema)


def test_selection_before_bind_rejected():
    _, batch = make_batch()
    op = SelectionOperator(Compare("a", "<", 1))
    with pytest.raises(OperatorError):
        op.process(batch)


def test_vectorized_same_semantics():
    schema, batch = make_batch()
    pred = Compare("a", "<", 6)
    scalar = SelectionOperator(pred)
    vec = VectorizedSelectionOperator(pred, lanes=4)
    scalar.bind(schema)
    vec.bind(schema)
    np.testing.assert_array_equal(scalar.process(batch)[0], vec.process(batch)[0])
    assert vec.lanes == 4


def test_vectorized_lane_selection():
    pred = Compare("a", "<", 1)
    op = VectorizedSelectionOperator.for_configuration(
        pred, memory_channels=2, tuple_width=64)
    assert op.lanes == 2  # 2 channels x 64 B / 64 B tuples

    wide = VectorizedSelectionOperator.for_configuration(
        pred, memory_channels=4, tuple_width=16)
    assert wide.lanes >= 4


def test_vectorized_validation():
    with pytest.raises(OperatorError):
        VectorizedSelectionOperator(Compare("a", "<", 1), lanes=0)
    with pytest.raises(OperatorError):
        VectorizedSelectionOperator.for_configuration(
            Compare("a", "<", 1), 2, tuple_width=0)


@settings(max_examples=30, deadline=None)
@given(threshold=st.integers(min_value=-5, max_value=15))
def test_selection_selectivity_property(threshold):
    schema, batch = make_batch(10)
    op = SelectionOperator(Compare("a", "<", threshold))
    op.bind(schema)
    out = op.process(batch)[0]
    expected = max(0, min(10, threshold))
    assert len(out) == expected
    assert np.all(out["a"] < threshold)


# --- the one evaluator against the reference model's row loop ------------------

_ORACLE_SCHEMA = Schema(list(default_schema().columns)
                        + [Column("s", "char", 4)])
_INTS = [0, -1, 2**53, 2**53 + 1, 2**63 - 1]
_FLOATS = [0.0, -0.0, float("nan"), 0.5, 2.0**53]
_CHARS = [b"", b"ab", b"abcd", b"zz"]


def _oracle_rows():
    """Every ``(a, b, s)`` combination of the edge values; ``c`` runs
    ``a`` backwards."""
    combos = list(itertools.product(_INTS, _FLOATS, _CHARS))
    rows = _ORACLE_SCHEMA.empty(len(combos))
    for name, column in zip("abs", zip(*combos)):
        rows[name] = column
    rows["c"] = rows["a"][::-1]
    return rows


def _comparisons():
    numeric = st.builds(
        lambda name, op, value: Cmp(op, Col(name), Lit(value)),
        st.sampled_from(["a", "b", "c"]), st.sampled_from(CMP_OPS),
        st.sampled_from(_INTS + _FLOATS))
    char = st.builds(
        lambda op, value: Cmp(op, Col("s"), Lit(value)),
        st.sampled_from(["==", "!="]),
        st.sampled_from(_CHARS + [v.decode() for v in _CHARS]))
    return numeric | char


_CONDITIONS = st.recursive(
    _comparisons(),
    lambda inner: (st.builds(BoolAnd, inner, inner)
                   | st.builds(BoolOr, inner, inner)
                   | st.builds(BoolNot, inner)),
    max_leaves=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cond=_CONDITIONS)
def test_eval_mask_matches_the_model_row_by_row(cond):
    """The vectorized mask equals ``sql_model``'s per-row truth on the
    edges a comparator can get wrong: signed zeros, NaN, int64 beyond
    2**53 against int and float literals, and char literals given as
    ``str`` and as ``bytes``."""
    rows = _oracle_rows()
    check_condition(cond, _ORACLE_SCHEMA)
    assert eval_mask(cond, rows).tolist() == [_truth(cond, row)
                                              for row in rows]
