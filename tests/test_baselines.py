"""CPU baselines: functional equality with oracles + cost-model behaviour."""

import numpy as np
import pytest

from repro.baselines.cpu_model import CostBreakdown, CpuCostModel
from repro.baselines.lcpu import LcpuBaseline
from repro.baselines.rcpu import RcpuBaseline
from repro.baselines.rnic import RnicBaseline
from repro.baselines.sql_model import _aggregate, _distinct
from repro.baselines.sw_ops import (map_resizes, software_distinct,
                                    software_groupby)
from repro.common import calibration as cal
from repro.common.config import RnicConfig
from repro.common.errors import ConfigurationError
from repro.common.expr import Col, TextMatch, eval_mask
from repro.common.records import Column, Schema
from repro.core.compile import (BoundAggregate, BoundDistinct, BoundFilter,
                                BoundRegex)
from repro.operators.aggregate import AggregateSpec
from repro.operators.encryption_op import encrypt_table_image
from repro.workloads.generator import (
    distinct_workload,
    groupby_workload,
    selection_workload,
    string_workload,
)

KB = 1024


# --- software grouping kernels ---------------------------------------------------

@pytest.mark.parametrize("distinct, resizes", [
    (0, 0), (13, 0), (14, 1), (27, 1), (28, 2), (55, 2), (56, 3), (100, 3),
    (111, 3), (112, 4)])
def test_map_resizes_follows_the_map_growth_rule(distinct, resizes):
    """16 slots doubling at 7/8 load: the sequence the hand-rolled map
    this closed form replaced produced key by key."""
    assert map_resizes(distinct) == resizes


GROUPING_SCHEMA = Schema([Column("k", "int64"), Column("f", "float64"),
                          Column("s", "char", 6), Column("v", "int64"),
                          Column("x", "float64")])
NAN = float("nan")


def grouping_rows(seed, n=400):
    rng = np.random.default_rng(seed)
    rows = GROUPING_SCHEMA.empty(n)
    rows["k"] = rng.integers(-3, 4, n)
    rows["f"] = rng.choice([0.0, -0.0, 1.5, NAN], n)
    rows["s"] = rng.choice([b"ab", b"ab\0c", b"ab\0d", b""], n)
    rows["v"] = rng.integers(-2**40, 2**40, n)
    rows["x"] = rng.normal(size=n)
    # A NaN as a group's first value (it sticks under min/max) and as a
    # later member of another group (it is skipped).
    rows["k"][:4] = [7, 8, 7, 8]
    rows["x"][:4] = [NAN, 1.0, 2.0, NAN]
    return rows


@pytest.mark.parametrize("keys", [["k"], ["f"], ["s"], ["s", "k", "f"]])
@pytest.mark.parametrize("seed", [0, 1])
def test_software_grouping_is_byte_equal_to_the_reference(keys, seed):
    rows = grouping_rows(seed)
    specs = [AggregateSpec("count", "*"), AggregateSpec("sum", "x"),
             AggregateSpec("min", "x"), AggregateSpec("max", "x"),
             AggregateSpec("avg", "v"), AggregateSpec("sum", "v"),
             AggregateSpec("min", "v")]
    _, expected = _aggregate(GROUPING_SCHEMA, rows, keys, specs)
    grouped = software_groupby(rows, GROUPING_SCHEMA, keys, specs)
    assert grouped.rows.tobytes() == expected.tobytes()
    assert grouped.num_groups == len(expected)
    assert grouped.map_resizes == map_resizes(len(expected))
    expected = _distinct(GROUPING_SCHEMA, rows, keys)
    distinct = software_distinct(rows, GROUPING_SCHEMA, keys)
    assert distinct.rows.tobytes() == expected.tobytes()
    assert distinct.map_resizes == map_resizes(len(expected))
    if keys == ["k"]:
        by_key = {int(r["k"]): r for r in grouped.rows}
        assert np.isnan(by_key[7]["min_x"]) and np.isnan(by_key[7]["max_x"])
        assert not np.isnan(by_key[8]["min_x"])


#: ``0.0`` and ``-0.0`` compare equal, so ``v < current`` keeps whichever a
#: group met first: the sign bits below, group by group.
ZERO_TIE_KEYS = [1, 1, 2, 2, 1, 2, 3, 3, 3]
ZERO_TIE_VALUES = [0.0, -0.0, -0.0, 0.0, 5.0, 5.0, -1.0, 0.0, -0.0]


def test_grouped_min_max_keep_the_first_of_equal_zeros():
    specs = [AggregateSpec("min", "x"), AggregateSpec("max", "x")]
    rows = GROUPING_SCHEMA.empty(len(ZERO_TIE_KEYS))
    rows["k"], rows["x"] = ZERO_TIE_KEYS, ZERO_TIE_VALUES
    _, expected = _aggregate(GROUPING_SCHEMA, rows, ["k"], specs)
    assert np.signbit(expected["min_x"]).tolist() == [False, True, True]
    assert np.signbit(expected["max_x"]).tolist() == [False, False, False]
    grouped = software_groupby(rows, GROUPING_SCHEMA, ["k"], specs)
    assert grouped.rows.tobytes() == expected.tobytes()
    rng = np.random.default_rng(4)
    rows = GROUPING_SCHEMA.empty(600)
    rows["k"] = rng.integers(0, 40, 600)
    rows["x"] = rng.choice([0.0, -0.0, 1.0, -1.0, NAN], 600,
                           p=[0.35, 0.35, 0.1, 0.1, 0.1])
    _, expected = _aggregate(GROUPING_SCHEMA, rows, ["k"], specs)
    grouped = software_groupby(rows, GROUPING_SCHEMA, ["k"], specs)
    assert grouped.rows.tobytes() == expected.tobytes()


def test_software_grouping_of_no_rows():
    rows = GROUPING_SCHEMA.empty(0)
    grouped = software_groupby(rows, GROUPING_SCHEMA, ["k"],
                               [AggregateSpec("avg", "v")])
    assert len(grouped.rows) == 0 and grouped.map_resizes == 0
    assert len(software_distinct(rows, GROUPING_SCHEMA, ["k"]).rows) == 0


# --- cost model --------------------------------------------------------------------

def test_cost_breakdown_totals():
    cb = CostBreakdown()
    cb.add("read", 100.0)
    cb.add("read", 50.0)
    cb.add("write", 25.0)
    assert cb.total_ns == 175.0
    with pytest.raises(ConfigurationError):
        cb.add("bad", -1.0)


def test_interference_shrinks_bandwidth():
    solo = CpuCostModel(active_clients=1)
    six = CpuCostModel(active_clients=6)
    assert six.read_bandwidth < solo.read_bandwidth
    # With 6 clients the socket ceiling also binds.
    assert six.read_bandwidth <= cal.CPU_SOCKET_DRAM_BANDWIDTH / 6 + 1e-9


def test_growing_hash_costs_more():
    m = CpuCostModel()
    assert m.hash_ns(1000, growing=True) > m.hash_ns(1000, growing=False)


def test_model_validates_clients():
    with pytest.raises(ConfigurationError):
        CpuCostModel(active_clients=0)


# --- LCPU functional equality ----------------------------------------------------------

def test_lcpu_select_matches_numpy():
    wl = selection_workload(2048, 0.5)
    result, elapsed, cost = LcpuBaseline().run(wl.schema, wl.rows,
                                               [BoundFilter(wl.predicate)])
    expected = wl.rows[eval_mask(wl.predicate, wl.rows)]
    np.testing.assert_array_equal(result["a"], expected["a"])
    assert elapsed > 0
    assert set(cost.parts) == {"setup", "read", "predicate", "write"}


def test_lcpu_distinct_matches_set():
    schema, rows = distinct_workload(1024, 200)
    result, elapsed, cost = LcpuBaseline().run(schema, rows,
                                               [BoundDistinct(("a",))])
    assert sorted(result["a"].tolist()) == sorted(set(rows["a"].tolist()))
    assert "hash" in cost.parts


def test_lcpu_groupby_matches_dict():
    schema, rows = groupby_workload(1024, 32)
    result, _, _ = LcpuBaseline().run(
        schema, rows, [BoundAggregate(("a",), (AggregateSpec("sum", "b"),))])
    got = {int(k): v for k, v in zip(result["a"], result["sum_b"])}
    expected = {}
    for k, v in zip(rows["a"], rows["b"]):
        expected[int(k)] = expected.get(int(k), 0.0) + float(v)
    assert got.keys() == expected.keys()
    for k in expected:
        assert got[k] == pytest.approx(expected[k])


def test_lcpu_regex_matches_substring_oracle():
    schema, rows = string_workload(256, 64, match_fraction=0.5)
    regex = BoundRegex(TextMatch(Col("s"), "farview", regexp=True))
    result, _, cost = LcpuBaseline().run(schema, rows, [regex])
    expected_ids = {int(r["id"]) for r in rows if b"farview" in bytes(r["s"])}
    assert set(result["id"].tolist()) == expected_ids
    assert "re2" in cost.parts


def test_lcpu_decrypt_round_trip():
    key, nonce = b"k" * 16, b"n" * 12
    wl = selection_workload(256, 1.0)
    image = encrypt_table_image(wl.schema.to_bytes(wl.rows), key, nonce)
    rows, _, cost = LcpuBaseline().run(wl.schema, image, key=key,
                                       nonce=nonce)
    np.testing.assert_array_equal(rows["a"], wl.rows["a"])
    assert "aes" in cost.parts


# --- RCPU is LCPU + shipping ---------------------------------------------------------------

def test_rcpu_slower_than_lcpu_everywhere():
    wl = selection_workload(4096, 0.5)
    steps = [BoundFilter(wl.predicate)]
    _, t_l, _ = LcpuBaseline().run(wl.schema, wl.rows, steps)
    _, t_r, _ = RcpuBaseline().run(wl.schema, wl.rows, steps)
    assert t_r > t_l  # §6.4: "in all the cases it is slower than LCPU"


def test_rcpu_result_identical_to_lcpu():
    schema, rows = distinct_workload(512, 64)
    steps = [BoundDistinct(("a",))]
    r_l, _, _ = LcpuBaseline().run(schema, rows, steps)
    r_r, _, _ = RcpuBaseline().run(schema, rows, steps)
    np.testing.assert_array_equal(r_l["a"], r_r["a"])


def test_rcpu_ship_cost_grows_with_result_size():
    wl_small = selection_workload(4096, 0.1)
    wl_large = selection_workload(4096, 0.9)
    _, _, cost_small = RcpuBaseline().run(
        wl_small.schema, wl_small.rows, [BoundFilter(wl_small.predicate)])
    _, _, cost_large = RcpuBaseline().run(
        wl_large.schema, wl_large.rows, [BoundFilter(wl_large.predicate)])
    assert cost_large.parts["ship_result"] > cost_small.parts["ship_result"]


# --- RNIC microbenchmark model (Figure 6 anchors) ------------------------------------------------

def test_rnic_throughput_peaks_near_11():
    rnic = RnicBaseline()
    peak = max(rnic.read_throughput_gbps(s)
               for s in (8 * KB, 16 * KB, 32 * KB))
    assert 10.0 <= peak <= 11.5  # "peaks at ~11 GBps" (PCIe bound)


def test_rnic_response_time_monotonic_in_size():
    rnic = RnicBaseline()
    times = [rnic.read_response_time_ns(s)
             for s in (512, 2 * KB, 8 * KB, 32 * KB)]
    assert times == sorted(times)


def test_rnic_pcie_latency_visible_at_small_sizes():
    rnic = RnicBaseline()
    rt = rnic.read_response_time_ns(512)
    assert rt > cal.RNIC_PCIE_LATENCY_NS  # the crossing is paid


def test_rnic_charges_the_configured_per_packet_overhead():
    # A 64 KiB READ is 64 packets of 1 KiB; each costs the larger of its
    # wire time and the NIC's per-packet overhead.  At the default 160 ns
    # the overhead binds; at 10 ns the wire time does.
    default = RnicBaseline().read_response_time_ns(64 * KB)
    assert default == pytest.approx(12_851.52, rel=1e-12)
    cfg = RnicConfig(per_packet_overhead_ns=10.0)
    wire = (cfg.packet_size + cfg.header_overhead) / cfg.line_rate
    fast = RnicBaseline(cfg).read_response_time_ns(64 * KB)
    assert default - fast == pytest.approx(64 * (160.0 - wire), rel=1e-12)


def test_rnic_validates_inputs():
    rnic = RnicBaseline()
    with pytest.raises(ConfigurationError):
        rnic.read_response_time_ns(0)
    with pytest.raises(ConfigurationError):
        rnic.read_throughput_gbps(1024, window=0)
