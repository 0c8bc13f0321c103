"""View conformance: incremental maintenance vs the serial SQL model.

The lock for the materialized-view PR: every cell of the conformance
matrix — view shape (one per circuit stage and kernel: ``SHAPES``) x
delta kind (insert / update / delete / mixed) x topology (single node,
2- and 4-node cluster), with a compaction committed mid-stream in every
cell — must leave the incrementally maintained view sha256-identical to
the serial :mod:`repro.baselines.sql_model` re-execution over the base
relation at the same epoch.  The subscriber's folded copy and its O(1)
splitmix64 digest ride along in every assertion.

A hypothesis property pushes random delta batches through a random
circuit, the join tests drive all three terms of the bilinear rule
(dR |x| S, R |x| dS, dR |x| dS), and a regression test pins the
compaction-notification contract: a subscriber across a compaction
neither double-counts nor misses rows.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sql_model import execute_model
from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.errors import CatalogError, QueryError, RegexSyntaxError
from repro.common.records import Column, Schema
from repro.core.api import ClusterClient, FarviewClient
from repro.core.cluster import FarviewCluster
from repro.core.node import FarviewNode
from repro.core.table import FTable
from repro.operators.selection import Compare
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * KB

TEST_CONFIG = FarviewConfig(memory=MemoryConfig(
    channels=2, channel_capacity=8 * MB, page_size=64 * KB))

BASE_SCHEMA = Schema([
    Column("k", "int64"),       # unique row key (predicate target)
    Column("cat", "char", 4),   # group / join key, 6 categories
    Column("val", "float64"),   # dyadic values: aggregates stay exact
])
DIM_SCHEMA = Schema([
    Column("cat", "char", 4),
    Column("rate", "float64"),
])
CATS = [f"c{i}".encode() for i in range(6)]

_JOIN_DIM = "FROM t JOIN dim ON t.cat = dim.cat"

#: shape name -> view SQL over the versioned base table ``t`` (a
#: statement naming the static dimension ``dim`` gets it uploaded).
SHAPES = {
    "filter": "SELECT * FROM t WHERE val < 64.0",
    "project": "SELECT k, val FROM t",
    "distinct": "SELECT DISTINCT cat FROM t",
    "group_by": ("SELECT cat, SUM(val) AS s, COUNT(*) AS n "
                 "FROM t GROUP BY cat"),
    "join": f"SELECT * {_JOIN_DIM}",
    "regex": "SELECT * FROM t WHERE cat REGEXP 'c[1-3]'",
    "like": "SELECT * FROM t WHERE cat LIKE 'c1%'",
    "eval": "SELECT k, val * 2.0 + 1.0 AS w FROM t",
    "eval_int": "SELECT k * 3 + 1 AS kk FROM t",
    "having": ("SELECT cat, SUM(val) AS s FROM t GROUP BY cat "
               "HAVING SUM(val) > 1000.0"),
    "global": ("SELECT COUNT(*) AS n, SUM(val) AS s, MIN(k) AS lo, "
               "MAX(k) AS hi FROM t"),
    "minmax_avg": ("SELECT cat, MIN(val) AS lo, MAX(val) AS hi, "
                   "AVG(val) AS a FROM t GROUP BY cat"),
    "expr_agg": "SELECT cat, SUM(val * 2.0) AS s FROM t GROUP BY cat",
    "filtered_arm": f"SELECT k, val, rate {_JOIN_DIM} WHERE dim.rate < 1.25",
    "join_group": (f"SELECT t.cat, SUM(val * rate) AS s {_JOIN_DIM} "
                   f"GROUP BY t.cat"),
}
DELTA_KINDS = ("insert", "update", "delete", "mixed")
BASE_ROWS = 96
ROUNDS = 3


def make_base(n: int, seed: int = 0, first_key: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = BASE_SCHEMA.empty(n)
    rows["k"] = np.arange(first_key, first_key + n)
    for i in range(n):
        rows["cat"][i] = CATS[int(rng.integers(len(CATS)))]
    rows["val"] = rng.integers(0, 500, n) * 0.25
    return rows


def make_dim() -> np.ndarray:
    rows = DIM_SCHEMA.empty(len(CATS) - 1)   # one category unmatched
    for i in range(len(rows)):
        rows["cat"][i] = CATS[i]
        rows["rate"][i] = 0.5 + 0.25 * i
    return rows


def sorted_sha(schema: Schema, rows: np.ndarray) -> str:
    """sha256 of the sorted row byte-images — the canonical form
    :meth:`ZSet.sha256` hashes, so views compare against it directly."""
    data = schema.to_bytes(rows)
    width = schema.row_width
    images = sorted(data[i:i + width] for i in range(0, len(data), width))
    return hashlib.sha256(b"".join(images)).hexdigest()


def model_sha(sql: str, current: np.ndarray,
              dim: np.ndarray | None = None) -> str:
    tables = {"t": (BASE_SCHEMA, current)}
    if dim is not None:
        tables["dim"] = (DIM_SCHEMA, dim)
    out_schema, out_rows = execute_model(sql, tables)
    return sorted_sha(out_schema, out_rows)


def make_client(num_nodes: int):
    """num_nodes == 1 -> single-node client; else a cluster client."""
    if num_nodes == 1:
        client = FarviewClient(FarviewNode(Simulator(), TEST_CONFIG))
    else:
        client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                              TEST_CONFIG))
    client.open_connection()
    return client


def upload_dim(client, num_nodes: int, rows: np.ndarray):
    if num_nodes == 1:
        table = FTable("dim", DIM_SCHEMA, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        return table
    return client.create_table("dim", DIM_SCHEMA, rows)


def current_rows(client, vt, schema: Schema = BASE_SCHEMA) -> np.ndarray:
    image, _ = client.read_version(vt)
    return schema.from_bytes(image, copy=True)


def commit_round(client, vt, kind: str, round_index: int,
                 next_key: int) -> int:
    """One delta round of the given kind; returns the next fresh key."""
    if kind in ("insert", "mixed"):
        batch = make_base(16, seed=100 + round_index, first_key=next_key)
        next_key += 16
        client.insert(vt, batch)
    if kind in ("update", "mixed"):
        client.update_where(vt, Compare("k", "<", 24 * (round_index + 1)),
                            {"val": 63.75 + round_index})
    if kind in ("delete", "mixed"):
        lo = 8 * round_index
        client.delete_where(vt, Compare("k", "<", lo + 4))
    return next_key


# ---------------------------------------------------------------------------
# The matrix: shape x delta kind x topology, compaction mid-stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_nodes", (1, 2, 4))
@pytest.mark.parametrize("kind", DELTA_KINDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_matrix_cell_matches_serial_rescan(shape, kind, num_nodes):
    sql = SHAPES[shape]
    client = make_client(num_nodes)
    dim = make_dim() if " dim " in sql else None
    if dim is not None:
        upload_dim(client, num_nodes, dim)
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(BASE_ROWS, seed=1))
    view, _ = client.create_view(sql, name="v")
    sub = client.subscribe(view)          # auto: every commit pushes
    assert view.sha256() == model_sha(sql, current_rows(client, vt), dim), \
        "bootstrap diverged from the serial model"

    next_key = BASE_ROWS
    for round_index in range(ROUNDS):
        next_key = commit_round(client, vt, kind, round_index, next_key)
        if round_index == ROUNDS // 2:
            client.compact(vt)            # mid-stream: pins keep the tail
        expected = model_sha(sql, current_rows(client, vt), dim)
        cell = f"{shape} x {kind} x N={num_nodes}, round {round_index}"
        assert view.sha256() == expected, f"{cell}: view diverged"
        assert sub.sha256() == expected, f"{cell}: subscriber diverged"
        assert sub.digest() == view.digest(), f"{cell}: digest mismatch"


# ---------------------------------------------------------------------------
# A view and sql() of the same statement: one set of kernels, one answer
# ---------------------------------------------------------------------------

EDGE_SCHEMA = Schema([Column("k", "int64"), Column("v", "float64"),
                      Column("s", "char", 16)])

#: cell -> (statement, the typed error both sides must raise or None
#: when both must return the same rows).  Each one a place where a
#: circuit with arithmetic of its own used to part ways with the engine.
EDGE_CELLS = {
    "max_beyond_float": ("SELECT MAX(k) AS m FROM t", None),
    "like_over_newline": ("SELECT k FROM t WHERE s LIKE 'a%'", None),
    "regex_unbalanced": ("SELECT k FROM t WHERE s REGEXP '('",
                         RegexSyntaxError),
    "regex_lookahead": ("SELECT k FROM t WHERE s REGEXP 'a(?=b)'",
                        RegexSyntaxError),
    "divide_by_zero": ("SELECT k / v AS q FROM t", None),
    "int64_wraps": ("SELECT k * k AS q FROM t", None),
}


def make_edge_rows(keys, values, strings) -> np.ndarray:
    rows = EDGE_SCHEMA.empty(len(keys))
    rows["k"], rows["v"], rows["s"] = keys, values, strings
    return rows


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("cell", EDGE_CELLS)
def test_view_agrees_with_sql_of_the_same_statement(cell):
    statement, error = EDGE_CELLS[cell]
    client = make_client(1)
    vt = client.create_versioned_table("t", EDGE_SCHEMA, make_edge_rows(
        [2 ** 60 + 1, 2 ** 60 + 3, 5, 7], [1.0, 0.0, 2.0, 4.0],
        [b"ab", b"a\nb", b"xa", b"b"]))
    if error is not None:
        with pytest.raises(error) as from_sql:
            client.sql(statement)
        with pytest.raises(error) as from_view:
            client.create_view(statement)
        assert str(from_view.value) == str(from_sql.value)
        return

    def by_sql() -> str:
        result, _ = client.sql(statement)
        return sorted_sha(result.schema, result.rows())

    view, _ = client.create_view(statement, name="v")
    client.subscribe(view)                # so the view advances
    assert sorted_sha(view.schema, view.materialize()) == by_sql()
    client.insert(vt, make_edge_rows([2 ** 61 + 5, 9], [0.0, 8.0],
                                     [b"a\n\nc", b"ba"]))
    client.update_where(vt, Compare("k", "<", 6), {"v": 0.0})
    assert sorted_sha(view.schema, view.materialize()) == by_sql()


def test_grouped_min_max_keep_int64_beyond_float53():
    """A grouped MIN / MAX over int64 values past 2**53 returns a value
    some row holds: offload, ship, a 2-node pool, a view and the model
    all answer the exact Python ints, not their float64 roundings."""
    big = 2 ** 60
    schema = Schema([Column("k", "int64"), Column("v", "int64")])
    rows = schema.empty(4)
    rows["k"], rows["v"] = [1, 1, 2, 2], [big + 1, big + 3, big + 5, 7]
    statement = "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k"
    exact = {(1, big + 1, big + 3), (2, 7, big + 5)}

    def answer(out: np.ndarray) -> set:
        return {(int(r["k"]), int(r["lo"]), int(r["hi"])) for r in out}

    for num_nodes in (1, 2):
        client = make_client(num_nodes)
        client.create_table("t", schema, rows)
        for placement in ("offload", "ship", "auto"):
            result, _ = client.sql(statement, placement=placement)
            assert answer(result.rows()) == exact, (num_nodes, placement)
        view, _ = client.create_view(statement, name="v")
        assert answer(view.materialize()) == exact, num_nodes
    assert answer(execute_model(statement, {"t": (schema, rows)})[1]) == exact


@pytest.mark.parametrize("statement", ["SELECT k FROM t ORDER BY k",
                                       "SELECT k FROM t LIMIT 2"])
def test_order_by_and_limit_are_not_maintainable(statement):
    """``sql()`` runs the statement; a view of it is refused, typed."""
    client = make_client(1)
    client.create_versioned_table("t", EDGE_SCHEMA, make_edge_rows(
        [3, 1, 2], [1.0, 2.0, 3.0], [b"a", b"b", b"c"]))
    client.sql(statement)
    with pytest.raises(QueryError) as refused:
        client.create_view(statement)
    assert str(refused.value) == (
        "ORDER BY / LIMIT are not incrementally maintainable: a Z-set has "
        "no row order; sort the subscriber's materialization instead")


# ---------------------------------------------------------------------------
# Property: random delta batches through a random circuit
# ---------------------------------------------------------------------------

@st.composite
def delta_stream(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    kinds = draw(st.lists(st.sampled_from(DELTA_KINDS),
                          min_size=1, max_size=4))
    compact_at = draw(st.integers(min_value=0, max_value=len(kinds) - 1))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return shape, kinds, compact_at, seed


@given(delta_stream())
@settings(max_examples=10, deadline=None)
def test_random_stream_matches_serial_rescan(case):
    shape, kinds, compact_at, seed = case
    sql = SHAPES[shape]
    client = make_client(1)
    dim = make_dim() if " dim " in sql else None
    if dim is not None:
        upload_dim(client, 1, dim)
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(BASE_ROWS, seed=seed))
    view, _ = client.create_view(sql, name="v")
    sub = client.subscribe(view)
    next_key = BASE_ROWS
    for round_index, kind in enumerate(kinds):
        next_key = commit_round(client, vt, kind, round_index, next_key)
        if round_index == compact_at:
            client.compact(vt)
        expected = model_sha(sql, current_rows(client, vt), dim)
        assert view.sha256() == expected
        assert sub.sha256() == expected
        assert sub.digest() == view.digest()


# ---------------------------------------------------------------------------
# The bilinear join rule: dR |x| S, R |x| dS, dR |x| dS
# ---------------------------------------------------------------------------

JOIN_SQL = "SELECT * FROM t JOIN dim ON t.cat = dim.cat"


def make_vdim(cats) -> np.ndarray:
    rows = DIM_SCHEMA.empty(len(cats))
    for i, cat in enumerate(cats):
        rows["cat"][i] = cat
        rows["rate"][i] = 0.25 * (i + 1)
    return rows


def test_join_bilinear_terms_with_versioned_build_side():
    """A versioned dimension makes both sides dynamic.  Probe-only
    commits drive dR |x| S, build-only commits drive R |x| dS, and a
    deferred refresh folding commits to *both* sides in one circuit
    step drives the dR |x| dS term — every state sha-checked against
    the serial model."""
    client = make_client(1)
    vdim = client.create_versioned_table("dim", DIM_SCHEMA,
                                         make_vdim(CATS[:4]))
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(48, seed=9))
    view, _ = client.create_view(JOIN_SQL, name="bilinear")
    sub = client.subscribe(view)

    def expected() -> str:
        return model_sha(JOIN_SQL, current_rows(client, vt),
                         current_rows(client, vdim, DIM_SCHEMA))

    assert view.sha256() == expected()
    # dR |x| S: probe-side churn only.
    client.insert(vt, make_base(16, seed=10, first_key=48))
    client.delete_where(vt, Compare("k", "<", 4))
    assert view.sha256() == expected()
    # R |x| dS: build-side churn only — rates rewritten in place (a
    # -old/+new pair per key) and one category retired outright.
    client.update_where(vdim, Compare("rate", "<", 0.6), {"rate": 8.25})
    client.delete_where(vdim, Compare("rate", ">", 8.0))
    assert view.sha256() == expected()
    # dR |x| dS: detach the auto subscriber, commit to BOTH sides, then
    # fold both deltas in a single engine-wide refresh step.
    client.unsubscribe(sub)
    manual = client.subscribe(view, auto=False)
    client.update_where(vt, Compare("k", ">=", 56), {"val": 500.0})
    client.insert(vdim, make_vdim(CATS[4:]))   # fresh build keys
    stale = view.sha256()
    stats, _ = client.refresh_views()
    assert stats.views_stepped == 1, \
        "both sides' deltas must fold in one circuit step"
    assert view.sha256() == expected() != stale
    assert manual.sha256() == view.sha256()
    assert manual.digest() == view.digest()


def test_join_duplicate_dynamic_build_keys_rejected_on_commit():
    """The circuit's build index enforces the same key-uniqueness
    contract as the offload join: a commit that makes build keys
    ambiguous surfaces a typed error at refresh, not wrong bytes."""
    client = make_client(1)
    vdim = client.create_versioned_table("dim", DIM_SCHEMA,
                                         make_vdim(CATS[:3]))
    client.create_versioned_table("t", BASE_SCHEMA, make_base(24, seed=12))
    view, _ = client.create_view(JOIN_SQL, name="dup")
    client.subscribe(view)                # auto: the commit refreshes
    dupe = DIM_SCHEMA.empty(1)
    dupe["cat"][0] = CATS[0]              # collides with an existing key
    dupe["rate"][0] = 9.0
    with pytest.raises(QueryError, match="unique"):
        client.insert(vdim, dupe)


# ---------------------------------------------------------------------------
# Compaction notification: the subscriber regression
# ---------------------------------------------------------------------------

def test_subscriber_across_compaction_counts_exactly_once():
    """The listener contract: a compaction folds the chain under a
    registered view, and the next refresh replays the retired tail the
    tracker pinned — each committed row counted exactly once (no
    double-count from re-reading the folded base, no miss from the
    retired segments)."""
    client = make_client(1)
    sql = SHAPES["group_by"]
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(64, seed=13))
    view, _ = client.create_view(sql, name="v")
    sub = client.subscribe(view, auto=False)   # deltas accumulate

    client.update_where(vt, Compare("k", "<", 32), {"val": 100.25})
    client.insert(vt, make_base(16, seed=14, first_key=64))
    client.compact(vt)                     # retires the unconsumed tail
    client.delete_where(vt, Compare("k", ">=", 72))

    stats, _ = client.refresh_views()
    # Exactly the committed delta rows: 32 updates (old-/new+ pairs are
    # one delta row each in the segment), 16 inserts, 8 deletes.
    assert stats.delta_rows == 32 + 16 + 8, \
        "compaction double-counted or dropped committed delta rows"
    expected = model_sha(sql, current_rows(client, vt))
    assert view.sha256() == expected
    assert sub.sha256() == expected
    # The compaction moved the trackers' pins forward once consumed: a
    # second refresh finds nothing pending.
    stats2, _ = client.refresh_views()
    assert stats2.segments == 0 and stats2.delta_rows == 0
    assert view.sha256() == expected


def test_listener_lifecycle_and_pin_release():
    """Dropping the last view over a table detaches its tracker
    listener and releases the pinned segments."""
    client = make_client(1)
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(32, seed=15))
    chain = vt.shards[0].chain
    assert chain.num_listeners == 0
    view, _ = client.create_view(SHAPES["filter"], name="a")
    view2, _ = client.create_view(SHAPES["distinct"], name="b")
    assert chain.num_listeners == 1, "views over one table share a tracker"
    assert chain.active_pins >= 1
    client.drop_view(view)
    assert chain.num_listeners == 1, "tracker still needed by view b"
    client.drop_view(view2)
    assert chain.num_listeners == 0
    assert chain.active_pins == 0, "dropping the last view must unpin"


# ---------------------------------------------------------------------------
# Epoch consistency and the registration path
# ---------------------------------------------------------------------------

def test_create_view_bootstrap_pins_a_consistent_epoch():
    """A view created while unconsumed deltas are pending must first
    fold them into the existing views, then bootstrap at the same
    epoch — two views over one table always agree."""
    client = make_client(1)
    sql = SHAPES["group_by"]
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(48, seed=16))
    first, _ = client.create_view(sql, name="first")
    client.subscribe(first, auto=False)    # commits accumulate
    client.update_where(vt, Compare("k", "<", 16), {"val": 9.5})
    second, _ = client.create_view(sql, name="second")
    assert first.epochs == second.epochs, \
        "pending deltas must be folded before a new view bootstraps"
    assert first.sha256() == second.sha256() == model_sha(
        sql, current_rows(client, vt))


def test_subscription_pushes_only_deltas_and_unsubscribe_stops_them():
    client = make_client(1)
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(64, seed=17))
    view, _ = client.create_view(SHAPES["group_by"], name="v")
    sub = client.subscribe(view)
    client.update_where(vt, Compare("k", "<", 8), {"val": 1.25})
    assert sub.updates_received == 1
    # Touched groups retract-and-emit: far fewer rows than the table.
    assert 0 < sub.rows_pushed <= 2 * len(CATS)
    pushed_before = sub.rows_pushed
    client.unsubscribe(sub)
    client.update_where(vt, Compare("k", "<", 8), {"val": 2.5})
    client.refresh_views()
    assert sub.rows_pushed == pushed_before, \
        "unsubscribed receiver still got pushes"


def test_view_registration_rejections_are_typed():
    client = make_client(1)
    client.create_versioned_table("t", BASE_SCHEMA, make_base(16, seed=18))
    plain_rows = make_base(16, seed=19)
    plain = FTable("p", BASE_SCHEMA, len(plain_rows))
    client.alloc_table_mem(plain)
    client.table_write(plain, plain_rows)

    with pytest.raises(QueryError, match="SELECT"):
        client.create_view("INSERT INTO t VALUES (1, 'c0', 2.0)")
    with pytest.raises(CatalogError, match="not in catalog"):
        client.create_view("SELECT * FROM nosuch")
    with pytest.raises(QueryError, match="not writable"):
        client.create_view("SELECT * FROM p")
    client.create_view(SHAPES["filter"], name="taken")
    with pytest.raises(QueryError, match="already exists"):
        client.create_view(SHAPES["distinct"], name="taken")
    with pytest.raises(QueryError, match="unknown view"):
        client.drop_view("never_registered")


def test_rebootstrap_converges_to_the_maintained_image():
    """Tearing a view down and re-bootstrapping from the chain at the
    current epoch reproduces the incrementally maintained bytes, and
    existing subscriptions carry over."""
    client = make_client(2)
    sql = SHAPES["group_by"]
    vt = client.create_versioned_table("t", BASE_SCHEMA,
                                       make_base(96, seed=20))
    view, _ = client.create_view(sql, name="v")
    sub = client.subscribe(view)
    for round_index in range(2):
        client.update_where(vt, Compare("k", "<", 40), {"val": 7.75})
        client.insert(vt, make_base(8, seed=21 + round_index,
                                    first_key=96 + 8 * round_index))
    maintained = view.sha256()
    fresh, _ = client.rebootstrap_view(view)
    assert fresh is client.views.views["v"] and fresh is not view
    assert fresh.sha256() == maintained
    assert sub.view is fresh, "subscription must rebind to the new view"
    client.insert(vt, make_base(8, seed=30, first_key=200))
    expected = model_sha(sql, current_rows(client, vt))
    assert fresh.sha256() == expected
    assert sub.sha256() == expected, \
        "rebound subscription stopped receiving pushes"


# ---------------------------------------------------------------------------
# Refresh transactionality: a typed refusal moves nothing
# ---------------------------------------------------------------------------

def test_refused_refresh_leaves_no_partial_state():
    """A refresh that raises a typed refusal is validate-then-commit:
    with a plain view and a join view over the same versioned build
    table, a commit that duplicates a build key refuses the refresh and
    leaves trackers, both views, their subscribers and ``pending``
    exactly as they were — the refusal used to surface *after* the plain
    view had advanced and pushed, the duplicate had been merged into the
    join's build index and the segment had been consumed, so deleting
    the offending row left the join view short and its contents holding
    a negative weight.  Once the delete commits, one refresh folds both
    segments and everything is sha256-identical to fresh views."""
    f_schema = Schema([Column("k", "int64"), Column("fk", "int64"),
                       Column("v", "float64")])
    d_schema = Schema([Column("id", "int64"), Column("w", "float64")])
    facts = f_schema.empty(8)
    facts["k"], facts["fk"] = np.arange(8), np.arange(8) % 4
    facts["v"] = np.arange(8) * 0.5
    dims = d_schema.empty(4)
    dims["id"], dims["w"] = np.arange(4), np.arange(4) * 0.25
    plain_sql = "SELECT id, w FROM d WHERE w >= 0.0"
    joined_sql = "SELECT k, v, w FROM f JOIN d ON fk = id"

    client = make_client(1)
    client.create_versioned_table("f", f_schema, facts)
    d = client.create_versioned_table("d", d_schema, dims)
    plain, _ = client.create_view(plain_sql, name="plain")
    joined, _ = client.create_view(joined_sql, name="joined")
    subs = [client.subscribe(plain), client.subscribe(joined)]

    def observable():
        return ([(v.sha256(), dict(v.epochs), v.refresh_count)
                 for v in (plain, joined)],
                [(s.sha256(), s.digest(), dict(s.epochs),
                  s.updates_received, s.rows_pushed) for s in subs],
                [t.processed_epoch
                 for ts in client.views.trackers.values() for t in ts])

    before = observable()
    dupe = d_schema.empty(1)
    dupe["id"], dupe["w"] = 2, 7.5        # id 2 already exists
    with pytest.raises(QueryError, match="duplicate build key"):
        client.insert(d, dupe)
    assert observable() == before, "a refused refresh moved state"
    assert client.views.has_pending(), "the refused segment was consumed"
    with pytest.raises(QueryError, match="duplicate build key"):
        client.refresh_views()            # still refused, still intact
    assert observable() == before

    client.delete_where(d, Compare("w", "==", 7.5))    # commit + refresh
    assert not client.views.has_pending()
    assert joined.num_rows == 8
    fresh_plain, _ = client.create_view(plain_sql, name="plain2")
    fresh_joined, _ = client.create_view(joined_sql, name="joined2")
    assert plain.sha256() == subs[0].sha256() == fresh_plain.sha256()
    assert joined.sha256() == subs[1].sha256() == fresh_joined.sha256()
    assert plain.epochs["d"] == joined.epochs["d"] == d.epoch
