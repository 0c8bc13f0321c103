"""Workload generators: determinism, calibrated selectivity, cardinality."""

import numpy as np
import pytest

from repro.common import calibration as cal
from repro.common.errors import QueryError
from repro.workloads.generator import (
    REGEX_NEEDLE,
    distinct_workload,
    groupby_workload,
    make_rows,
    projection_workload,
    selection_workload,
    string_workload,
)
from repro.workloads.tpch import LINEITEM_SCHEMA, lineitem, q1_query, q6_query


def test_make_rows_deterministic():
    from repro.common.records import default_schema
    a = make_rows(default_schema(), 100, seed=1)
    b = make_rows(default_schema(), 100, seed=1)
    np.testing.assert_array_equal(a, b)
    c = make_rows(default_schema(), 100, seed=2)
    assert not np.array_equal(a["a"], c["a"])


def test_selection_workload_hits_target_selectivity():
    for target in (1.0, 0.5, 0.25, 0.1):
        wl = selection_workload(20_000, target)
        assert wl.actual_selectivity == pytest.approx(target, abs=0.05)


def test_selection_workload_full_table():
    wl = selection_workload(1000, 1.0)
    assert wl.actual_selectivity == 1.0


def test_selection_workload_validates():
    with pytest.raises(QueryError):
        selection_workload(10, 1.5)
    with pytest.raises(QueryError):
        make_rows(selection_workload(1, 1.0).schema, -1)


def test_distinct_workload_cardinality():
    schema, rows = distinct_workload(5000, 123)
    assert len(set(rows["a"].tolist())) == 123


def test_distinct_workload_all_distinct():
    schema, rows = distinct_workload(1000, 1000)
    assert len(set(rows["a"].tolist())) == 1000


def test_distinct_workload_validates():
    with pytest.raises(QueryError):
        distinct_workload(10, 0)
    with pytest.raises(QueryError):
        distinct_workload(10, 11)


def test_groupby_workload_values_in_range():
    schema, rows = groupby_workload(1000, 10)
    assert len(set(rows["a"].tolist())) == 10
    assert rows["b"].min() >= 0.0
    assert rows["b"].max() <= 100.0


def test_projection_workload_widths():
    schema, rows = projection_workload(10, 512)
    assert schema.row_width == 512
    assert len(rows) == 10


def test_string_workload_match_fraction():
    schema, rows = string_workload(400, 64, match_fraction=0.5, seed=3)
    matches = sum(1 for r in rows if REGEX_NEEDLE.encode() in bytes(r["s"]))
    assert matches / 400 == pytest.approx(0.5, abs=0.08)


def test_string_workload_nonmatching_rows_cannot_match():
    """Filler alphabet excludes 'f' so only planted needles match."""
    schema, rows = string_workload(100, 64, match_fraction=0.0, seed=4)
    assert all(b"f" not in bytes(r["s"]) for r in rows)


def test_string_workload_validates():
    with pytest.raises(QueryError):
        string_workload(10, 64, match_fraction=2.0)
    with pytest.raises(QueryError):
        string_workload(10, 4)  # too narrow for the needle


# --- TPC-H -----------------------------------------------------------------------

def test_lineitem_schema_is_64_bytes():
    assert LINEITEM_SCHEMA.row_width == 64


def test_lineitem_value_ranges():
    rows = lineitem(2000)
    assert rows["quantity"].min() >= 1
    assert rows["quantity"].max() <= 50
    assert rows["discount"].min() >= 0.0
    assert rows["discount"].max() <= 0.10
    assert set(rows["returnflag"].tolist()) <= {0, 1, 2}


def test_q6_selectivity_near_paper_quote():
    """§5.3: 'only 2% of the data is finally selected' for TPC-H Q6."""
    rows = lineitem(50_000)
    q6 = q6_query()
    mask = q6.predicate.evaluate(rows)
    assert float(mask.mean()) == pytest.approx(cal.TPCH_Q6_SELECTIVITY,
                                               abs=0.01)


def test_q1_produces_six_groups():
    rows = lineitem(10_000)
    q1 = q1_query()
    q1.validate(LINEITEM_SCHEMA)
    keys = {(int(r["returnflag"]), int(r["linestatus"])) for r in rows}
    assert len(keys) == 6  # 3 flags x 2 statuses
