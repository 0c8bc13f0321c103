"""Property tests: IR -> SQL -> IR round-trips, every binder rewrite keeps
a statement's rows, and execution matches the serial reference model.

Three kinds of property lock the compiler front end:

* **Structural round-trip** — random canonical IR DAGs rendered through
  :func:`repro.core.ir.render_sql` re-parse to the *identical* tree
  (rendering is fully parenthesized, so operator precedence can never
  reassociate a condition).
* **One per rewrite** — :mod:`repro.baselines.sql_model` interprets the
  resolved, un-rewritten tree; the same interpreter over the tree after
  the first *k* rewrites must give the same names and bytes, for every
  *k*.  Each rewrite also has example tests whose fixture is
  ``render_sql`` before and after.
* **The cut** — the executable DAGs run through the real engine (single
  node, offload and ship) and must be sha256-identical to the model.

Generator invariants mirror the grammar's own validation rules (tested
separately in test_core_sql.py): grouped queries select only group
columns and aggregates, expression items carry aliases, HAVING
aggregates also appear in the select list, ORDER BY keys come from the
select list, every WHERE conjunct reads one table, and output names
never collide.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sql_model import execute_model, interpret
from repro.common.records import Column, Schema
from repro.core.api import FarviewClient, canonical_result_bytes
from repro.core.compile import (REWRITES, canonicalise_keys,
                                lift_aggregate_args, parse_sql, promote_join,
                                prune_columns, push_filters, resolve)
from repro.core.ir import (AggCall, Aggregate, Arith, BoolAnd, BoolNot, BoolOr,
                           Cmp, Col, Distinct, Filter, Join, Limit, Lit,
                           Project, Scan, Sort, conjoin, render_sql)
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.table import FTable
from repro.sim.engine import Simulator

T_SCHEMA = Schema([Column("a", "int64"), Column("b", "int64"),
                   Column("c", "int64"), Column("f", "float64")])
#: ``d.b`` collides with ``t.b``: selected un-aliased it is ``build_b``.
D_SCHEMA = Schema([Column("id", "int64"), Column("v", "int64"),
                   Column("b", "int64")])
E_SCHEMA = Schema([Column("eid", "int64"), Column("w", "int64")])

INT_COLS = ("a", "b", "c")
NUM_COLS = INT_COLS + ("f",)
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
AGG_FUNCS = ("count", "sum", "min", "max", "avg")

NUM_ROWS = 64
DIM_ROWS = 16


def make_rows(seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = T_SCHEMA.empty(NUM_ROWS)
    for name in INT_COLS:
        rows[name] = rng.integers(0, 12, NUM_ROWS)
    rows["f"] = rng.integers(0, 40, NUM_ROWS) * 0.25
    return rows


def make_dim(seed: int = 43) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = D_SCHEMA.empty(DIM_ROWS)
    rows["id"] = np.arange(DIM_ROWS)          # unique build keys
    rows["v"] = rng.integers(0, 12, DIM_ROWS)
    rows["b"] = rng.integers(0, 12, DIM_ROWS)
    return rows


def make_ext(seed: int = 44) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = E_SCHEMA.empty(DIM_ROWS)
    rows["eid"] = np.arange(DIM_ROWS)[::-1]
    rows["w"] = rng.integers(0, 12, DIM_ROWS)
    return rows


MODEL_TABLES = {"t": (T_SCHEMA, make_rows()), "d": (D_SCHEMA, make_dim()),
                "e": (E_SCHEMA, make_ext())}


# -- strategies ---------------------------------------------------------------

int_lits = st.integers(min_value=0, max_value=12).map(Lit)


def condition_over(columns):
    """A boolean tree whose comparisons all read ``columns`` — one table,
    so the whole tree is one pushable WHERE conjunct."""
    return st.recursive(
        st.builds(Cmp, op=st.sampled_from(CMP_OPS),
                  left=st.sampled_from(columns), right=int_lits),
        lambda inner: st.one_of(
            st.builds(BoolAnd, left=inner, right=inner),
            st.builds(BoolOr, left=inner, right=inner),
            st.builds(BoolNot, operand=inner)),
        max_leaves=3)


#: Per-table WHERE conjuncts.  ``d.b`` must be spelled qualified (a bare
#: ``b`` is ``t.b``); ``d.id`` is the build key the join equates with
#: ``t.a``, which a conjunct may still filter the build side on.
TABLE_CONDITIONS = {
    "t": condition_over([Col(name) for name in INT_COLS] + [Col("a", "t")]),
    "d": condition_over([Col("v"), Col("b", "d"), Col("id", "d")]),
    "e": condition_over([Col("w"), Col("w", "e")]),
}


def safe_arith(operands):
    """Single-level arithmetic: col op (col | small literal); '/' only by
    a non-zero literal so the model's python division can never trap
    where numpy would emit inf."""
    return st.one_of(
        st.builds(Arith, op=st.sampled_from(("+", "-", "*")),
                  left=operands, right=st.one_of(operands, int_lits)),
        st.builds(Arith, op=st.just("/"), left=operands,
                  right=st.integers(min_value=2, max_value=9).map(Lit)))


@st.composite
def from_lists(draw):
    """``(rel, columns)``: ``t``, ``t JOIN d`` or ``t JOIN d JOIN e``
    (``e`` probes ``t.c`` or, chained through the first join, ``d.v``)
    under an optional WHERE of per-table conjuncts, and the select-able
    ``(column reference, output name)`` pairs in ``*`` order."""
    tables = draw(st.sampled_from([("t",), ("t", "d"), ("t", "d", "e")]))
    rel = Scan("t")
    columns = [(Col(name), name) for name in NUM_COLS]
    if "d" in tables:
        rel = Join(rel, "d", Col("a"), Col("id"))
        columns += [(Col("v"), "v"), (Col("b", "d"), "build_b")]
    if "e" in tables:
        on = (draw(st.sampled_from([Col("c"), Col("v", "d")])),
              Col("eid", "e"))
        rel = Join(rel, "e", *(on if draw(st.booleans()) else on[::-1]))
        columns.append((Col("w"), "w"))
    terms = [draw(TABLE_CONDITIONS[table])
             for table in draw(st.permutations(tables))
             if draw(st.booleans())]
    if terms:
        rel = Filter(rel, conjoin(terms))
    return rel, columns


def with_tail(draw, rel, out_names, max_limit):
    sort_names = draw(st.lists(st.sampled_from(out_names), max_size=2,
                               unique=True))
    if sort_names:
        rel = Sort(rel, tuple((Col(name), draw(st.booleans()))
                              for name in sort_names))
    limit = draw(st.none() | st.integers(min_value=1, max_value=max_limit))
    return rel if limit is None else Limit(rel, limit)


@st.composite
def plain_selects(draw):
    """Non-aggregated SELECT: columns + aliased expressions, optional
    DISTINCT / WHERE / ORDER BY / LIMIT over up to two joins."""
    rel, columns = draw(from_lists())
    star = draw(st.booleans())
    items: list[tuple] = []
    if not star:
        items = [(col, None) for col, _name in draw(st.lists(
            st.sampled_from(columns), min_size=1, max_size=4, unique=True))]
        operands = st.sampled_from(
            [col for col, name in columns if name != "f"])
        items += [(expr, f"e{i}") for i, expr in enumerate(
            draw(st.lists(safe_arith(operands), max_size=2)))]
    names = dict(columns)
    out_names = [name for _col, name in columns] if star else [
        alias or names[expr] for expr, alias in items]
    rel = Project(rel, items=tuple(items), star=star)
    if draw(st.booleans()):
        rel = Distinct(rel)
    return with_tail(draw, rel, out_names, max_limit=32)


@st.composite
def aggregate_selects(draw):
    """Grouped / whole-table aggregation with optional HAVING and
    ORDER BY over the output columns, over up to two joins; the select
    list need neither follow the GROUP BY order nor show every key."""
    rel, columns = draw(from_lists())
    group = draw(st.lists(
        st.sampled_from([pair for pair in columns if pair[1] != "f"]),
        max_size=2, unique=True))
    operands = st.sampled_from(
        [col for col, name in columns if name != "f"])
    aggs: list[AggCall] = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        func = draw(st.sampled_from(AGG_FUNCS))
        if func == "count" and draw(st.booleans()):
            arg = None
        elif draw(st.booleans()):
            arg = draw(st.sampled_from(columns))[0]
        else:
            arg = draw(safe_arith(operands))
        aggs.append(AggCall(func, arg, alias=f"g{i}"))
    having = None
    if group and draw(st.booleans()):
        target = draw(st.sampled_from(aggs))
        having = Cmp(draw(st.sampled_from(CMP_OPS)),
                     AggCall(target.func, target.arg, alias=""),
                     Lit(draw(st.integers(min_value=0, max_value=20))))
    shown = [pair for pair in group if draw(st.booleans())]
    items = draw(st.permutations([(col, None) for col, _name in shown]
                                 + [(agg, None) for agg in aggs]))
    rel = Aggregate(       # the parser lists aggregates in select order
        rel, tuple(col for col, _name in group),
        tuple(expr for expr, _alias in items if isinstance(expr, AggCall)),
        having)
    rel = Project(rel, items=tuple(items), star=False)
    out_names = [name for _col, name in shown] + [agg.alias for agg in aggs]
    return with_tail(draw, rel, out_names, max_limit=8)


select_dags = st.one_of(plain_selects(), aggregate_selects())


# -- round-trip ---------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(select_dags)
def test_render_parse_roundtrip(rel):
    """render_sql(ir) re-parses to the structurally identical DAG."""
    statement = render_sql(rel)
    parsed = parse_sql(statement)
    assert parsed.ir == rel, (
        f"round-trip changed the DAG for {statement!r}:\n"
        f"  sent   {rel}\n  got    {parsed.ir}")
    # And rendering is a fixpoint: render(parse(render(ir))) == render(ir).
    assert render_sql(parsed.ir) == statement


# -- the rewrites -------------------------------------------------------------

def _handle(name, schema, key):
    return SimpleNamespace(name=name, schema=schema, versioned=False,
                           num_partitions=2,
                           partition=PartitionSpec("hash", key=key))


#: ``t`` and ``e`` are hash-partitioned on ``t.c = e.eid``: that join is
#: the one :func:`promote_join` moves next to the base scan.
CATALOG = SimpleNamespace(lookup={
    "t": _handle("t", T_SCHEMA, "c"), "d": _handle("d", D_SCHEMA, "v"),
    "e": _handle("e", E_SCHEMA, "eid")}.__getitem__)


def rewritten(rel, upto: int = len(REWRITES)):
    """``rel`` resolved, then through the first ``upto`` rewrites."""
    rel = resolve(rel, CATALOG)
    for rewrite in REWRITES[:upto]:
        rel = rewrite(rel, CATALOG)
    return rel


@pytest.mark.parametrize("upto", range(1, len(REWRITES) + 1),
                         ids=[rewrite.__name__ for rewrite in REWRITES])
@settings(max_examples=60, deadline=None)
@given(rel=select_dags)
def test_rewrite_keeps_the_rows(upto, rel):
    """run(rewrite(rel)) == run(rel): the model on the statement's text
    and its interpreter on the tree after this rewrite (and the ones
    before it) agree on schema names and bytes."""
    statement = render_sql(rel)
    schema, rows = execute_model(statement, MODEL_TABLES)
    tree = rewritten(rel, upto)
    got_schema, got_rows = interpret(tree, MODEL_TABLES)
    assert got_schema.names == schema.names, statement
    assert got_schema.to_bytes(got_rows) == schema.to_bytes(rows), (
        f"{REWRITES[upto - 1].__name__} changed the rows of {statement!r}:"
        f"\n  {render_sql(tree)}")


def _rendered(sql: str, *rewrites) -> str:
    rel = resolve(parse_sql(sql).ir, CATALOG)
    for rewrite in rewrites:
        rel = rewrite(rel, CATALOG)
    return render_sql(rel)


_TD = "FROM t JOIN d ON t.a = d.id"


def test_resolve_qualifies_and_names():
    assert _rendered(f"SELECT c, d.b, id {_TD} WHERE v < 3 ORDER BY t.c") == (
        "SELECT t.c, d.b AS build_b, d.id AS a FROM t JOIN d ON t.a = d.id "
        "WHERE d.v < 3 ORDER BY c")
    assert _rendered(f"SELECT * {_TD}") == (f"SELECT * {_TD}")


@pytest.mark.parametrize("sql,after", [
    (f"SELECT c {_TD} WHERE v < 3 AND (c = 1 OR a > 2) AND d.b > 0",
     "SELECT t.c FROM (SELECT * FROM t WHERE (t.c = 1 OR t.a > 2)) "
     "JOIN (SELECT * FROM d WHERE (d.v < 3 AND d.b > 0)) ON t.a = d.id"),
    ("SELECT c FROM t WHERE a < 3", "SELECT t.c FROM t WHERE t.a < 3"),
    (f"SELECT c {_TD} JOIN e ON d.v = e.eid WHERE w = 1",
     "SELECT t.c FROM t JOIN d ON t.a = d.id "
     "JOIN (SELECT * FROM e WHERE e.w = 1) ON d.v = e.eid"),
])
def test_push_filters_examples(sql, after):
    assert _rendered(sql, push_filters) == after


@pytest.mark.parametrize("sql,after", [
    (f"SELECT id, v {_TD} WHERE d.id > 2",      # a Filter keeps its table
     "SELECT t.a, d.v FROM t "
     "JOIN (SELECT * FROM d WHERE d.id > 2) ON t.a = d.id"),
    (f"SELECT d.id, COUNT(*) AS n {_TD} GROUP BY d.id HAVING d.id > 1",
     "SELECT t.a, COUNT(*) AS n FROM t JOIN d ON t.a = d.id "
     "GROUP BY t.a HAVING t.a > 1"),
])
def test_canonicalise_keys_examples(sql, after):
    assert _rendered(sql, push_filters, canonicalise_keys) == after


@pytest.mark.parametrize("sql,after", [
    ("SELECT b, SUM(a * c) AS s, MAX(f) AS m FROM t GROUP BY b",
     "SELECT t.b, SUM(_agg0) AS s, MAX(t.f) AS m FROM "
     "(SELECT t.b, t.f, (t.a * t.c) AS _agg0 FROM t) GROUP BY t.b"),
    ("SELECT SUM(a) AS s FROM t", "SELECT SUM(t.a) AS s FROM t"),
])
def test_lift_aggregate_args_examples(sql, after):
    assert _rendered(sql, lift_aggregate_args) == after


@pytest.mark.parametrize("sql,after", [
    (f"SELECT c, v {_TD} WHERE f < 1.5 AND d.b > 0",
     "SELECT t.c, d.v FROM (SELECT t.a, t.c FROM t WHERE t.f < 1.5) "
     "JOIN (SELECT d.id, d.v FROM d WHERE d.b > 0) ON t.a = d.id"),
    (f"SELECT c {_TD}",         # a semi-join's build side: the key alone
     "SELECT t.c FROM (SELECT t.a, t.c FROM t) "
     "JOIN (SELECT d.id FROM d) ON t.a = d.id"),
    ("SELECT a, b, c, f FROM t", "SELECT t.a, t.b, t.c, t.f FROM t"),
])
def test_prune_columns_examples(sql, after):
    assert _rendered(sql, push_filters, prune_columns) == after


@pytest.mark.parametrize("sql,after", [
    (f"SELECT v, w {_TD} JOIN e ON t.c = e.eid",       # co-located: first
     "SELECT d.v, e.w FROM t JOIN e ON t.c = e.eid JOIN d ON t.a = d.id"),
    (f"SELECT v, w {_TD} JOIN e ON t.c = e.eid WHERE w > 1",     # filtered
     "SELECT d.v, e.w FROM t JOIN d ON t.a = d.id "
     "JOIN (SELECT * FROM e WHERE e.w > 1) ON t.c = e.eid"),
    (f"SELECT * {_TD} JOIN e ON t.c = e.eid",          # * is in join order
     f"SELECT * {_TD} JOIN e ON t.c = e.eid"),
])
def test_promote_join_examples(sql, after):
    assert _rendered(sql, push_filters, promote_join) == after


# -- the cut ------------------------------------------------------------------

def _engine_client() -> FarviewClient:
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    for name, (schema, rows) in MODEL_TABLES.items():
        table = FTable(name, schema, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
    return client


@settings(max_examples=40, deadline=None)
@given(select_dags)
def test_execution_matches_model(rel):
    """The cut keeps the rows too: what the engine runs for the bound
    statement (offload and ship) gives the serial model's names and
    bytes."""
    statement = render_sql(rel)
    schema, rows = execute_model(statement, MODEL_TABLES)
    expected = hashlib.sha256(schema.to_bytes(rows)).hexdigest()
    for placement in ("offload", "ship"):
        client = _engine_client()
        result, _ = client.sql(statement, placement=placement)
        assert result.schema.names == schema.names
        digest = hashlib.sha256(
            canonical_result_bytes(result)).hexdigest()
        assert digest == expected, (
            f"{placement} diverged from the model for {statement!r} "
            f"({len(rows)} model rows)")
