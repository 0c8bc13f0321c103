"""Experiment harnesses on scaled-down sweeps: shapes must match the paper."""

import pytest

from repro.common import calibration as cal
from repro.experiments import (
    fig6_rdma,
    fig7_projection,
    fig8_selection,
    fig9_grouping,
    fig10_regex,
    fig11_encryption,
    fig12_multiclient,
    fig13_scaleout,
    fig14_pushdown,
    fig15_updates,
    fig17_availability,
    fig21_serving,
    table1_resources,
)

KB = 1024


def assert_dominates(faster, slower) -> None:
    """Every point of ``faster`` must lie at or below ``slower``."""
    for x in faster.xs:
        assert faster.y_at(x) <= slower.y_at(x), (
            f"expected {faster.name} <= {slower.name} at x={x}")


def assert_monotonic(series, slack: float = 1.02) -> None:
    """y must not decrease by more than ``slack`` jitter across x."""
    for a, b in zip(series.ys, series.ys[1:]):
        assert b >= a / slack, f"{series.name} not monotonic: {a} -> {b}"


def test_table1_reproduces_paper_rows():
    result = table1_resources.run()
    assert result.system_row == pytest.approx((24.0, 23.0, 29.0, 0.0))
    assert result.operator_rows["Regular expression"][0] == pytest.approx(2.3)
    assert result.operator_rows["Distinct/Group by"][2] == pytest.approx(8.0)
    assert result.operator_rows["En(de)cryption"][0] == pytest.approx(3.6)
    # §6.1: the deployed system stays under 30% of the device.
    assert result.full_deployment_max_utilization <= 0.30
    assert "6 regions" in result.render()


def test_fig6_paper_sweep_peaks_and_margins():
    fig6a, fig6b = fig6_rdma.run()
    tput_fv, tput_rnic = (fig6a.series_named(n) for n in ("FV", "RNIC"))
    resp_fv, resp_rnic = (fig6b.series_named(n) for n in ("FV", "RNIC"))
    # (a) Below 4 kB the RNIC achieves better throughput (paper §6.2).
    small = [x for x in tput_fv.xs if x < cal.RNIC_ADVANTAGE_BELOW_BYTES]
    assert small
    for size in small:
        assert tput_rnic.y_at(size) >= tput_fv.y_at(size)
    # (a) FV peaks near wire goodput (~12 GBps), above RNIC's PCIe-bound
    # ~11 GBps.
    assert max(tput_fv.ys) == pytest.approx(cal.FV_PEAK_READ_GBPS, abs=1.0)
    assert 10.0 <= max(tput_rnic.ys) <= 11.5
    assert max(tput_fv.ys) > max(tput_rnic.ys)
    # (b) FV wins large transfers by a substantial margin ("at least
    # 20%"), and response time grows with transfer size for both.
    advantage = 1.0 - resp_fv.y_at(32 * KB) / resp_rnic.y_at(32 * KB)
    assert advantage >= cal.FV_LARGE_TRANSFER_LATENCY_ADVANTAGE, (
        f"FV advantage at 32 kB only {advantage:.1%}")
    assert_monotonic(resp_fv)
    assert_monotonic(resp_rnic)


def test_fig6_small_vs_large_transfer_shape():
    fig6a, fig6b = fig6_rdma.run(
        sizes_throughput=(512, 2 * KB, 16 * KB),
        sizes_response=(512, 16 * KB))
    tput_fv = fig6a.series_named("FV")
    tput_rnic = fig6a.series_named("RNIC")
    # RNIC ahead at small, FV ahead at large.
    assert tput_rnic.y_at(512) >= tput_fv.y_at(512)
    assert tput_fv.y_at(16 * KB) > tput_rnic.y_at(16 * KB)
    resp_fv = fig6b.series_named("FV")
    resp_rnic = fig6b.series_named("RNIC")
    assert resp_rnic.y_at(512) <= resp_fv.y_at(512)
    assert resp_fv.y_at(16 * KB) < resp_rnic.y_at(16 * KB)


def test_fig7_crossover_between_256_and_512():
    result = fig7_projection.run(tuple_counts=(1024, 4096, 16384))
    sa = result.series_named("FV-SA")
    t256 = result.series_named("FV-t256B")
    t512 = result.series_named("FV-t512B")
    for n in (1024, 4096, 16384):
        assert t256.y_at(n) <= sa.y_at(n) <= t512.y_at(n)
    # At scale the SA advantage over t512B is roughly the ratio of bytes
    # touched; expect at least 1.5x at the largest point.
    assert t512.y_at(16384) / sa.y_at(16384) >= 1.5
    for series in (sa, t256, t512):
        assert_monotonic(series)


def test_fig8_orderings_at_25pct():
    result = fig8_selection.run_panel(0.25, table_sizes=(64 * KB, 256 * KB))
    fv = result.series_named("FV")
    fvv = result.series_named("FV-V")
    lcpu = result.series_named("LCPU")
    rcpu = result.series_named("RCPU")
    for size in (64 * KB, 256 * KB):
        assert fvv.y_at(size) <= fv.y_at(size) <= lcpu.y_at(size) <= rcpu.y_at(size)


def test_fig8_vectorization_useless_at_full_selectivity():
    result = fig8_selection.run_panel(1.0, table_sizes=(256 * KB,))
    fv = result.series_named("FV")
    fvv = result.series_named("FV-V")
    assert fv.y_at(256 * KB) == pytest.approx(fvv.y_at(256 * KB), rel=0.1)


@pytest.mark.parametrize("selectivity,low,high", [
    (1.0, 0.9, 1.1),    # network-bound: vectorization buys nothing
    (0.5, 1.1, 1.8),    # slightly more performant (paper)
    (0.25, 1.5, 9.9),   # roughly twice as fast (bounded ~1.8x here)
], ids=["100pct", "50pct", "25pct"])
def test_fig8_vectorization_gain_at_the_largest_table(selectivity, low, high):
    result = fig8_selection.run_panel(selectivity,
                                      table_sizes=(64 * KB, 1024 * KB))
    fvv, fv, lcpu, rcpu = (result.series_named(n)
                           for n in ("FV-V", "FV", "LCPU", "RCPU"))
    # Farview outperforms both baselines in all cases (paper §6.4).
    for faster, slower in ((fvv, fv), (fv, lcpu), (lcpu, rcpu)):
        assert_dominates(faster, slower)
    assert low <= fv.y_at(1024 * KB) / fvv.y_at(1024 * KB) <= high
    for series in (fv, fvv, lcpu, rcpu):
        assert_monotonic(series)


#: (runner at the paper's smallest + largest point, minimum LCPU/FV gap
#: at the largest point) — §6.5-§6.8's "baselines degrade dramatically".
PAPER_SCALE_GAPS = {
    "fig9a": (lambda: fig9_grouping.run_distinct(
        table_sizes=(64 * KB, 1024 * KB)), 5.0),
    "fig9b": (lambda: fig9_grouping.run_groupby_scaling(
        table_sizes=(64 * KB, 1024 * KB)), 5.0),
    "fig10": (fig10_regex.run, 3.0),
    "fig11a": (lambda: fig11_encryption.run_response(
        table_sizes=(128 * KB, 1024 * KB)), 4.0),
    "fig12": (lambda: fig12_multiclient.run(
        table_sizes=(64 * KB, 2048 * KB)), 2.5),
}


@pytest.mark.parametrize("figure", list(PAPER_SCALE_GAPS))
def test_fv_dominates_the_baselines_at_paper_scale(figure):
    runner, min_gap = PAPER_SCALE_GAPS[figure]
    result = runner()
    fv, lcpu, rcpu = (result.series_named(n) for n in ("FV", "LCPU", "RCPU"))
    assert_dominates(fv, lcpu)
    assert_dominates(lcpu, rcpu)
    largest = fv.xs[-1]
    assert lcpu.y_at(largest) / fv.y_at(largest) >= min_gap
    for series in (fv, lcpu, rcpu):
        assert_monotonic(series)


def test_fig11b_decryption_costs_no_throughput():
    result = fig11_encryption.run_throughput()
    rd = result.series_named("FV-RD")
    rd_dec = result.series_named("FV-RD+Dec")
    # "there is no noticeable performance penalty" (paper §6.7):
    # within 10% at every transfer size.
    for x in rd.xs:
        penalty = 1.0 - rd_dec.y_at(x) / rd.y_at(x)
        assert penalty <= 0.10, f"decryption penalty {penalty:.1%} at {x} B"


def test_fig9a_baselines_grow_faster_than_fv():
    result = fig9_grouping.run_distinct(table_sizes=(64 * KB, 256 * KB))
    fv = result.series_named("FV")
    lcpu = result.series_named("LCPU")
    fv_growth = fv.y_at(256 * KB) / fv.y_at(64 * KB)
    lcpu_growth = lcpu.y_at(256 * KB) / lcpu.y_at(64 * KB)
    assert lcpu.y_at(64 * KB) > fv.y_at(64 * KB)
    assert lcpu_growth >= fv_growth * 0.9  # both grow; baseline at least as fast


def test_fig9c_fv_flush_grows_with_groups():
    result = fig9_grouping.run_groupby_vs_groups(
        group_counts=(256, 2048), table_size=256 * KB)
    fv, lcpu, rcpu = (result.series_named(n) for n in ("FV", "LCPU", "RCPU"))
    assert_dominates(fv, lcpu)
    assert_dominates(lcpu, rcpu)
    # The flush phase adds latency per aggregate (paper: "The response
    # time is thus bigger if the number of aggregates is higher").
    assert fv.y_at(2048) > fv.y_at(256)


def test_fig10_fv_ahead_and_gap_widens():
    result = fig10_regex.run(string_sizes=(256, 4 * KB), num_rows=4)
    fv = result.series_named("FV")
    lcpu = result.series_named("LCPU")
    rcpu = result.series_named("RCPU")
    for size in (256, 4 * KB):
        assert fv.y_at(size) < lcpu.y_at(size) < rcpu.y_at(size)
    assert (lcpu.y_at(4 * KB) / fv.y_at(4 * KB)
            >= lcpu.y_at(256) / fv.y_at(256))


def test_fig12_fv_beats_contending_cpus():
    result = fig12_multiclient.run(table_sizes=(64 * KB, 256 * KB))
    fv = result.series_named("FV")
    lcpu = result.series_named("LCPU")
    rcpu = result.series_named("RCPU")
    for size in (64 * KB, 256 * KB):
        assert fv.y_at(size) < lcpu.y_at(size) < rcpu.y_at(size)


def test_fig13_throughput_scales_with_nodes():
    result = fig13_scaleout.run(node_counts=(1, 2, 4), table_size=128 * KB)
    pool = result.series_named("FV-pool")
    ideal = result.series_named("ideal")
    # Meaningful speedup at every doubling, but never above linear.
    assert pool.y_at(2) > pool.y_at(1) * 1.5
    assert pool.y_at(4) > pool.y_at(2) * 1.5
    for n in (1, 2, 4):
        assert pool.y_at(n) <= ideal.y_at(n) * 1.001


def test_fig14_crossover_and_auto_tracking():
    """One 64 B panel at two sweep ends: ship wins the selective end,
    offload the unselective end, and auto sits on the winner (the runner
    itself asserts the 10% tracking bound at every point)."""
    (panel,) = fig14_pushdown.run(tuple_widths=(64,),
                                  selectivities=(0.25, 1.0))
    off = panel.series_named("FV-off")
    ship = panel.series_named("FV-ship")
    auto = panel.series_named("FV-auto")
    assert ship.y_at(0.25) < off.y_at(0.25)   # reconfiguration dominates
    assert off.y_at(1.0) < ship.y_at(1.0)     # materialization dominates
    for x in (0.25, 1.0):
        assert auto.y_at(x) <= min(off.y_at(x), ship.y_at(x)) * 1.10


def test_fig15_delta_sweep_shapes():
    """Scan latency grows with the delta fraction, shipping grows faster
    (it adds the client-side merge), and the compacted scan is flat at
    the chain-free latency."""
    panel = fig15_updates.run_delta_sweep(fractions=(0.0, 0.5),
                                          table_bytes=128 * KB)
    deltas = panel.series_named("FV-deltas")
    ship = panel.series_named("FV-ship")
    compacted = panel.series_named("FV-compacted")
    xs = deltas.xs
    assert deltas.points[1].y > deltas.points[0].y
    assert (ship.points[1].y - ship.points[0].y
            > deltas.points[1].y - deltas.points[0].y)
    assert compacted.points[1].y == pytest.approx(compacted.points[0].y,
                                                  rel=0.01)
    assert compacted.points[1].y < deltas.points[1].y
    assert xs[0] == 0.0 and xs[1] > 0.0


def test_fig15_scan_under_update_isolation_and_contention():
    """The runner itself asserts every scan equals a quiesced replay at
    its pinned epoch; here: writers only add contention latency."""
    panel = fig15_updates.run_scan_under_update(rates=(0, 4),
                                                table_bytes=64 * KB)
    latency = panel.series_named("FV-under-update")
    assert latency.points[1].y > latency.points[0].y


def test_fig16_build_sweep_crossover_and_scaleout():
    """Scaled-down fig16: ship wins the small build on a cold region,
    offload wins the large one (the runner asserts byte-identity and
    the 10% auto-tracking bound itself), and the broadcast join's
    response time improves with pool size (the runner pins the merged
    sha256 against single-node execution)."""
    from repro.experiments import fig16_joins

    panel = fig16_joins.run_build_sweep(fact_bytes=128 * KB,
                                        build_rows=(256, 16384))
    off = panel.series_named("FV-off")
    ship = panel.series_named("FV-ship")
    auto = panel.series_named("FV-auto")
    assert ship.y_at(256) < off.y_at(256)         # reconfiguration dominates
    assert off.y_at(16384) < ship.y_at(16384)     # build-hash dominates
    for x in (256, 16384):
        assert auto.y_at(x) <= min(off.y_at(x), ship.y_at(x)) * 1.10

    scale = fig16_joins.run_scaleout(fact_rows=4096, build_rows=256,
                                     node_counts=(1, 2, 4))
    latency = scale.series_named("FV-join")
    assert latency.y_at(2) < latency.y_at(1)
    assert latency.y_at(4) < latency.y_at(2)


def test_fig17_replication_buys_availability():
    # The runner asserts the byte-exactness and zero-loss claims inline;
    # here: a scaled-down sweep keeps the expected availability ordering.
    fig17a, fig17b = fig17_availability.run_fault_sweep(
        crash_counts=(0, 2), num_nodes=2)
    for panel in (fig17a, fig17b):
        assert {s.name for s in panel.series} == {"k=1", "k=2"}
    k1, k2 = (fig17a.series_named(n) for n in ("k=1", "k=2"))
    assert k2.y_at(0) > 0 and k1.y_at(0) > 0       # no-fault sanity
    assert k2.y_at(2) >= k1.y_at(2)                # replicas never hurt

    fig17c = fig17_availability.run_availability(node_counts=(1, 2))
    k1c, k2c = (fig17c.series_named(n) for n in ("k=1", "k=2"))
    assert k2c.y_at(2) == 100.0                    # headline: zero loss
    assert k1c.y_at(2) < 100.0                     # unreplicated loses


def test_fig21_serving_sweep_scaled_down():
    # The runner asserts drain, zero starvation, and sha-vs-serial-replay
    # inline; here: a scaled-down sweep keeps the headline shape.
    fig21a, fig21b = fig21_serving.run_load_sweep(tenant_counts=(20, 80))
    assert {s.name for s in fig21a.series} == {"p50", "p99"}
    p50, p99 = (fig21a.series_named(n) for n in ("p50", "p99"))
    for count in (20, 80):
        assert 0 < p50.y_at(count) <= p99.y_at(count)
    offered = fig21b.series_named("offered")
    executed = fig21b.series_named("executed")
    assert offered.y_at(80) > offered.y_at(20)     # load actually grew
    # Coalescing: executions grow far slower than offered load.
    assert executed.y_at(80) < offered.y_at(80) / 4


def test_fig21_fairness_panel_scaled_down():
    fig21c = fig21_serving.run_fairness(weights=(4.0,))
    heavy = fig21c.series_named("fair heavy")
    light = fig21c.series_named("fair light")
    assert heavy.y_at(4.0) < light.y_at(4.0)       # weight buys latency
    fifo_h = fig21c.series_named("fifo heavy")
    fifo_l = fig21c.series_named("fifo light")
    # FIFO is weight-blind: its class gap is a rounding error next to
    # the fair policy's.
    fifo_gap = abs(fifo_h.y_at(4.0) - fifo_l.y_at(4.0))
    fair_gap = light.y_at(4.0) - heavy.y_at(4.0)
    assert fair_gap > 10 * fifo_gap


def test_experiment_result_rendering():
    result = fig8_selection.run_panel(1.0, table_sizes=(64 * KB,))
    text = result.render()
    assert "fig8_100pct" in text
    assert "FV" in text and "RCPU" in text
    with pytest.raises(KeyError):
        result.series_named("nope")
