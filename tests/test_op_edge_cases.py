"""Operator edge cases: empty inputs, boundary widths, multi-key grouping,
CTR block boundaries, regex degenerate patterns."""

import numpy as np
import pytest

from repro.common.records import Column, Schema, default_schema, string_schema
from repro.operators.aggregate import AggregateSpec, StandaloneAggregateOperator
from repro.operators.base import OperatorPipeline
from repro.operators.crypto import AesCtr
from repro.operators.distinct import DistinctOperator
from repro.operators.encryption_op import DecryptOperator, EncryptOperator
from repro.operators.groupby import GroupByOperator
from repro.operators.packing import Packer
from repro.operators.projection import ProjectionOperator, SmartAddressingPlan
from repro.operators.regex_engine import CompiledRegex
from repro.operators.regex_op import RegexMatchOperator
from repro.operators.selection import Compare, SelectionOperator

KEY = b"\x11" * 16
NONCE = b"\x22" * 12


# --- empty inputs everywhere -----------------------------------------------------

def test_operators_tolerate_empty_batches():
    schema = default_schema()
    empty = schema.empty(0)
    for op in (SelectionOperator(Compare("a", "<", 1)),
               ProjectionOperator(["a"]),
               DistinctOperator(["a"]),
               GroupByOperator(["a"], [AggregateSpec("sum", "b")]),
               StandaloneAggregateOperator([AggregateSpec("count", "*")])):
        op.bind(schema)
        out = op.process(empty)[0]
        assert len(out) == 0


def test_empty_table_through_full_pipeline():
    schema = default_schema()
    pipeline = OperatorPipeline(
        "empty", schema,
        row_ops=[SelectionOperator(Compare("a", "<", 1)),
                 ProjectionOperator(["a"])])
    rows, source = pipeline.run(b"")
    assert len(rows) == len(source) == 0
    assert pipeline.flush() == b""


def test_groupby_empty_table_flushes_nothing():
    schema = default_schema()
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")])
    op.bind(schema)
    out = op.flush()
    assert len(out) == 0
    assert op.flush_cycles() == 0


# --- selectivity boundaries ---------------------------------------------------------

def test_selection_zero_and_full():
    schema = default_schema()
    batch = schema.empty(10)
    batch["a"] = np.arange(10)
    none = SelectionOperator(Compare("a", "<", -1))
    none.bind(schema)
    assert len(none.process(batch)[0]) == 0
    every = SelectionOperator(Compare("a", ">=", 0))
    every.bind(schema)
    assert len(every.process(batch)[0]) == 10


# --- multi-key distinct ordering ----------------------------------------------------

def test_distinct_multi_key_first_occurrence_order():
    schema = default_schema()
    batch = schema.empty(6)
    batch["a"] = [1, 1, 2, 1, 2, 3]
    batch["c"] = [9, 9, 9, 8, 9, 9]
    op = DistinctOperator(["a", "c"])
    op.bind(schema)
    out = op.process(batch)[0]
    assert [(int(r["a"]), int(r["c"])) for r in out] == [
        (1, 9), (2, 9), (1, 8), (3, 9)]


# --- group-by key that is a char column -----------------------------------------------

def test_groupby_char_key():
    schema = string_schema(16)
    rows = schema.empty(5)
    rows["id"] = [1, 2, 3, 4, 5]
    rows["s"] = [b"x", b"y", b"x", b"x", b"y"]
    op = GroupByOperator(["s"], [AggregateSpec("count", "*")])
    op.bind(schema)
    op.process(rows)
    out = op.flush()
    got = {bytes(r["s"]): int(r["count_star"]) for r in out}
    assert got == {b"x": 3, b"y": 2}


# --- aggregation over negative values ---------------------------------------------------

def test_aggregates_handle_negatives():
    schema = default_schema()
    batch = schema.empty(4)
    batch["a"] = [-5, -1, 3, 7]
    op = StandaloneAggregateOperator([
        AggregateSpec("min", "a"), AggregateSpec("max", "a"),
        AggregateSpec("sum", "a"), AggregateSpec("avg", "a")])
    op.bind(schema)
    op.process(batch)
    row = op.flush()
    assert row["min_a"][0] == -5
    assert row["max_a"][0] == 7
    assert row["sum_a"][0] == 4
    assert row["avg_a"][0] == pytest.approx(1.0)


# --- smart addressing single-column / full-row degenerate cases ---------------------------

def test_smart_addressing_all_columns_is_one_run():
    schema = default_schema()
    plan = SmartAddressingPlan(schema, list(schema.names))
    assert plan.requests_per_tuple == 1
    assert plan.bytes_per_tuple == schema.row_width


def test_smart_addressing_single_trailing_column():
    schema = default_schema()
    plan = SmartAddressingPlan(schema, ["h"])
    assert [(run.offset, run.width) for run in plan.runs] == [(56, 8)]
    assert plan.total_bytes(2) == 16


# --- CTR block boundaries --------------------------------------------------------------------

def test_ctr_non_multiple_of_block():
    ctr = AesCtr(KEY, NONCE)
    data = b"q" * 37  # 2 blocks + 5 bytes
    assert ctr.process(ctr.process(data)) == data


def test_ctr_stage_one_byte_chunks():
    plain = bytes(range(64))
    enc = EncryptOperator(KEY, NONCE)
    cipher = b"".join(enc.process(plain[i:i + 1]) for i in range(64))
    cipher += enc.finish()
    dec = DecryptOperator(KEY, NONCE)
    out = dec.process(cipher) + dec.finish()
    assert out == plain


# --- regex degenerate patterns ------------------------------------------------------------------

def test_regex_empty_pattern_matches_everything():
    rx = CompiledRegex("")
    assert rx.search(b"")
    assert rx.search(b"anything")
    assert rx.fullmatch(b"")
    assert not rx.fullmatch(b"x")


def test_regex_single_alternation_with_empty_branch():
    rx = CompiledRegex("a|")
    assert rx.fullmatch(b"a")
    assert rx.fullmatch(b"")


def test_regex_operator_empty_strings_column():
    schema = string_schema(8)
    rows = schema.empty(2)
    rows["id"] = [1, 2]
    rows["s"] = [b"", b"abc"]
    op = RegexMatchOperator("s", "abc")
    op.bind(schema)
    out = op.process(rows)[0]
    assert out["id"].tolist() == [2]


def test_regex_on_max_width_value():
    schema = string_schema(8)
    rows = schema.empty(1)
    rows["id"] = [1]
    rows["s"] = [b"12345678"]  # exactly the column width, no NUL padding
    op = RegexMatchOperator("s", r"\d{8}")
    op.bind(schema)
    assert len(op.process(rows)[0]) == 1


# --- packer boundary sizes -------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 63, 64, 65, 127, 128, 129])
def test_packer_boundaries(size):
    packer = Packer()
    out = packer.pack(b"v" * size) + packer.flush()
    assert out == b"v" * size


# --- projection of one column from a one-column schema ----------------------------------------------

def test_identity_projection():
    schema = Schema([Column("only", "int64")])
    batch = schema.empty(3)
    batch["only"] = [1, 2, 3]
    op = ProjectionOperator(["only"])
    assert op.bind(schema) == schema
    np.testing.assert_array_equal(op.process(batch)[0]["only"], [1, 2, 3])
