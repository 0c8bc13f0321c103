"""Figure 20 (extension): incremental materialized views over the delta chain.

Every earlier figure answers queries by rescanning the base relation.
With the view subsystem (docs/VIEWS.md) a registered view is maintained
by shipping only the committed delta segments to the client and folding
them through a Z-set circuit — the far-memory bet being that a delta is
a tiny fraction of the chain, so propagating it beats re-ingesting the
whole relation.  This experiment measures where that bet pays:

* **fig20a — refresh vs rescan latency over the delta fraction.**  A
  group-by view over a versioned table; each cell commits several
  update rounds touching a fraction ``f`` of the rows, then a
  compaction folds the chain (the trackers' pins keep the retired
  segments readable).  The incremental refresh ships and replays the
  whole retired delta tail; the full rescan (re-bootstrapping the view
  from the chain at the same epoch) reads only the folded base.  Small
  ``f`` refreshes ship a few delta rows and win outright; at heavy
  churn the accumulated tail outweighs the base and the rescan wins —
  churn, not table size, decides (the crossover, asserted).  Both the
  measured times and the placement cost model's predictions
  (:meth:`view_refresh_ns` / :meth:`view_rescan_ns`) are plotted, and
  every cell's refreshed view, re-bootstrapped view, and the serial
  reference model are sha256-identical (asserted).

* **fig20b — bytes ingested per update path.**  The same sweep's byte
  story: a refresh reads only the committed segments (touched rows x
  delta row width x rounds); the rescan reads the compacted chain.
  Asserted strictly smaller at the smallest fraction and strictly
  larger at full-table churn (the byte crossover).

* **fig20c — epoch-consistent subscription stream on a 4-node cluster.**
  An auto-subscribed view over a chunk-partitioned versioned table,
  driven by rounds of mixed insert / update / delete commits with a
  cluster-wide compaction mid-stream.  Every commit triggers an
  incremental push; after every round the view, the subscriber's folded
  copy, and a full rescan through the serial model are asserted
  sha256-identical, and the subscriber's O(1) splitmix64 digest matches
  the view's (the integrity shortcut).  Plotted: cumulative rows pushed
  and per-round output delta rows vs epoch — the push traffic stays
  proportional to the churn, not to the table.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..baselines.cpu_model import CpuCostModel
from ..baselines.sql_model import execute_model
from ..common.records import Column, Schema
from ..core.api import ClusterClient, FarviewClient
from ..core.cluster import FarviewCluster
from ..core.cost_model import PlacementCostModel
from ..core.node import FarviewNode
from ..operators.selection import Compare
from ..sim.engine import Simulator
from ..sim.stats import Series
from .common import EXPERIMENT_CONFIG, ExperimentResult, us

#: fig20a/b sweep: fraction of the base table each update round touches.
DELTA_FRACTIONS = (0.01, 0.05, 0.25, 1.0)
BASE_ROWS = 4096
#: Update rounds committed (then compacted) before each measurement.
CHURN_ROUNDS = 4

#: fig20c stream.
STREAM_NODES = 4
STREAM_BASE_ROWS = 2048
STREAM_ROUNDS = 6
STREAM_BATCH = 96

BASE_SCHEMA = Schema([
    Column("k", "int64"),       # unique row key (predicate target)
    Column("cat", "char", 4),   # group key, 8 categories
    Column("val", "float64"),   # dyadic values: sums are exact
])

#: The maintained view: a grouped aggregate (stateful circuit).
VIEW_SQL = "SELECT cat, SUM(val) AS s, COUNT(*) AS n FROM t GROUP BY cat"

CATEGORIES = np.array([f"c{i}".encode() for i in range(8)])


def make_base(num_rows: int, seed: int = 20) -> np.ndarray:
    rows = BASE_SCHEMA.empty(num_rows)
    rng = np.random.default_rng(seed)
    rows["k"] = np.arange(num_rows)
    rows["cat"] = CATEGORIES[np.arange(num_rows) % len(CATEGORIES)]
    rows["val"] = rng.integers(0, 1000, num_rows) * 0.25
    return rows


def sorted_sha(schema: Schema, rows: np.ndarray) -> str:
    """sha256 of the sorted row byte-images — the same canonical form
    :meth:`ZSet.sha256` hashes, so views and rescans compare directly."""
    data = schema.to_bytes(rows)
    width = schema.row_width
    images = sorted(data[i:i + width] for i in range(0, len(data), width))
    return hashlib.sha256(b"".join(images)).hexdigest()


def model_sha(current_rows: np.ndarray) -> str:
    """The serial reference model's answer at this epoch, canonicalized."""
    out_schema, out_rows = execute_model(
        VIEW_SQL, {"t": (BASE_SCHEMA, current_rows)})
    return sorted_sha(out_schema, out_rows)


def _fresh_client() -> FarviewClient:
    client = FarviewClient(FarviewNode(Simulator(), EXPERIMENT_CONFIG))
    client.open_connection()
    return client


def _run_crossover_cell(fraction: float):
    """One cold client: commit :data:`CHURN_ROUNDS` updates each
    touching ``fraction`` of the base rows, compact, then measure the
    incremental refresh and a full re-bootstrap at the same epoch.
    Returns the cell's measurements."""
    client = _fresh_client()
    vt = client.create_table("t", BASE_SCHEMA, make_base(BASE_ROWS))
    view, _ = client.create_view(VIEW_SQL, name="fig20")
    touched = max(1, int(round(fraction * BASE_ROWS)))
    for round_index in range(CHURN_ROUNDS):
        client.update_where(vt, Compare("k", "<", touched),
                            {"val": 31.5 + round_index})
    # Fold the chain: the rescan now reads one base segment, while the
    # refresh replays the retired delta tail its tracker pins kept.
    client.compact(vt)
    chain_bytes = vt.size_bytes
    base_rows = vt.num_rows

    stats, refresh_ns = client.refresh_views()
    assert stats.delta_rows == CHURN_ROUNDS * touched

    client.drop_view(view)
    rescan_view, rescan_ns = client.create_view(VIEW_SQL, name="fig20r")

    image, _ = client.table_read(vt)
    expected = model_sha(BASE_SCHEMA.from_bytes(image, copy=True))
    assert view.sha256() == expected, (
        f"refreshed view diverged from the model at fraction {fraction}")
    assert rescan_view.sha256() == expected, (
        f"re-bootstrapped view diverged from the model at fraction "
        f"{fraction}")

    cpu = CpuCostModel()
    cost = PlacementCostModel(EXPERIMENT_CONFIG, cpu)
    predicted_refresh = cost.view_refresh_ns(stats.bytes_read,
                                             stats.delta_rows,
                                             view.circuit.depth)
    predicted_rescan = cost.view_rescan_ns(chain_bytes, base_rows, 0,
                                           view.circuit.depth)
    return (refresh_ns, rescan_ns, stats.bytes_read,
            rescan_view.bootstrap_bytes, predicted_refresh,
            predicted_rescan)


def run_crossover(fractions=DELTA_FRACTIONS) -> list[ExperimentResult]:
    """fig20a + fig20b: the incremental-vs-rescan crossover sweep."""
    refresh_us = Series("refresh")
    rescan_us = Series("rescan")
    model_refresh = Series("model-refresh")
    model_rescan = Series("model-rescan")
    refresh_kb = Series("refresh-bytes")
    rescan_kb = Series("rescan-bytes")
    crossed = False
    for fraction in fractions:
        (t_refresh, t_rescan, b_refresh, b_rescan,
         p_refresh, p_rescan) = _run_crossover_cell(fraction)
        refresh_us.add(fraction, us(t_refresh))
        rescan_us.add(fraction, us(t_rescan))
        model_refresh.add(fraction, us(p_refresh))
        model_rescan.add(fraction, us(p_rescan))
        refresh_kb.add(fraction, b_refresh / 1024)
        rescan_kb.add(fraction, b_rescan / 1024)
        if t_rescan < t_refresh:
            crossed = True
    assert refresh_us.points[0].y < rescan_us.points[0].y, (
        "the smallest delta fraction must refresh faster than a rescan")
    assert refresh_kb.points[0].y < rescan_kb.points[0].y, (
        "the smallest delta fraction must refresh with strictly fewer "
        "ingested bytes than a rescan")
    assert refresh_kb.points[-1].y > rescan_kb.points[-1].y, (
        "full-table churn must accumulate a delta tail larger than the "
        "compacted chain (the byte crossover)")
    assert model_refresh.points[0].y < model_rescan.points[0].y, (
        "the cost model must predict the small-fraction refresh win")
    assert model_refresh.points[-1].y > model_rescan.points[-1].y, (
        "the cost model must predict the heavy-churn rescan win")
    assert crossed, ("rescan never beat refresh — the sweep does not "
                     "reach the crossover")
    fig20a = ExperimentResult(
        experiment_id="fig20a",
        title=(f"Incremental refresh vs full rescan, {BASE_ROWS} base "
               f"rows, {CHURN_ROUNDS} update rounds + compaction "
               f"(cold clients)"),
        x_label="delta fraction", y_label="us",
        series=[refresh_us, rescan_us, model_refresh, model_rescan],
        notes=[
            "refresh ships the retired delta tail (pinned across the "
            "compaction) and folds it through the Z-set circuit; rescan "
            "re-bootstraps the view from the compacted chain at the same "
            "epoch",
            "every cell sha256-identical to the serial model (asserted); "
            "refresh wins strictly at the smallest fraction, rescan wins "
            "at full-table churn, and the cost model predicts both ends "
            "(asserted crossover)",
        ])
    fig20b = ExperimentResult(
        experiment_id="fig20b",
        title=(f"Bytes ingested per update path, {BASE_ROWS} base rows, "
               f"{CHURN_ROUNDS} update rounds + compaction"),
        x_label="delta fraction", y_label="kB",
        series=[refresh_kb, rescan_kb],
        notes=[
            "refresh reads delta-segment bytes only (touched rows x delta "
            "row width x rounds); rescan reads the folded base — the byte "
            "crossover sits where the accumulated tail outgrows the "
            "compacted chain (asserted at both ends)",
        ])
    return [fig20a, fig20b]


def run_subscription_stream() -> ExperimentResult:
    """fig20c: auto-subscribed view under a mixed commit stream on a
    4-node cluster, compaction mid-stream, sha-pinned every round."""
    client = ClusterClient(FarviewCluster(Simulator(), STREAM_NODES,
                                          EXPERIMENT_CONFIG))
    client.open_connection()
    vt = client.create_table(
        "t", BASE_SCHEMA, make_base(STREAM_BASE_ROWS, seed=41))
    view, _ = client.create_view(VIEW_SQL, name="fig20c")
    sub = client.subscribe(view)          # auto: every commit pushes

    pushed = Series("rows-pushed")
    out_rows = Series("output-delta-rows")
    next_key = STREAM_BASE_ROWS
    rng = np.random.default_rng(7)
    for round_index in range(STREAM_ROUNDS):
        batch = BASE_SCHEMA.empty(STREAM_BATCH)
        batch["k"] = np.arange(next_key, next_key + STREAM_BATCH)
        batch["cat"] = CATEGORIES[rng.integers(len(CATEGORIES),
                                               size=STREAM_BATCH)]
        batch["val"] = rng.integers(0, 1000, STREAM_BATCH) * 0.25
        next_key += STREAM_BATCH
        client.insert(vt, batch)
        client.update_where(
            vt, Compare("k", "<", (round_index + 1) * 128),
            {"val": 0.5 + round_index})
        if round_index == STREAM_ROUNDS // 2:
            client.compact(vt)
        client.delete_where(
            vt, Compare("k", ">=", next_key - STREAM_BATCH // 4))

        image, _ = client.table_read(vt)
        expected = model_sha(BASE_SCHEMA.from_bytes(image, copy=True))
        assert view.sha256() == expected, (
            f"view diverged from the model at round {round_index}")
        assert sub.sha256() == expected, (
            f"subscriber diverged from the view at round {round_index}")
        assert sub.digest() == view.digest(), (
            f"subscriber digest mismatch at round {round_index}")
        pushed.add(vt.epoch, sub.rows_pushed)
        out_rows.add(vt.epoch, view.contents.entry_count)
    assert sub.updates_received >= 3 * STREAM_ROUNDS, (
        "every commit with churn must push an incremental update")
    return ExperimentResult(
        experiment_id="fig20c",
        title=(f"Epoch-consistent subscription stream, {STREAM_NODES} "
               f"nodes, {STREAM_ROUNDS} rounds of mixed commits "
               f"(compaction mid-stream)"),
        x_label="epoch", y_label="rows",
        series=[pushed, out_rows],
        notes=[
            "each committed write batch auto-propagates one incremental "
            "push; the subscriber folds deltas only and is asserted "
            "sha256- and digest-identical to the view and the serial "
            "model after every round",
            "the cluster-wide compaction mid-stream neither double-counts "
            "nor misses rows (trackers pin their chains across it)",
        ])


def run() -> list[ExperimentResult]:
    return run_crossover() + [run_subscription_stream()]
