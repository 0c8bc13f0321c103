"""SQL front end: tokenizer, parser, LIKE translation, end-to-end."""

import numpy as np
import pytest

from repro.common.config import FarviewConfig
from repro.common.expr import like_to_regex
from repro.common.records import Column, Schema, default_schema
from repro.core.ir import Col, Join, Scan, TextMatch
from repro.core.pipeline_compiler import compile_query
from repro.core.query import JoinSpec, Query, select_star
from repro.core.table import FTable
from repro.core.compile import (ParsedWrite, SqlSyntaxError, bind_select,
                                parse_sql)
from repro.operators.aggregate import AggregateSpec
from repro.operators.regex_engine import CompiledRegex
from repro.operators.selection import And, Compare, Not, Or


# --- the one route: parse, then bind against a (stub) catalog -----------------

#: What the stub catalog serves for any table a test does not describe.
_ANY = Schema([Column("a", "int64"), Column("A", "int64"),
               Column("b", "float64"), Column("c", "float64"),
               Column("id", "int64"), Column("s", "char", 16)])


class _Handle:
    """A catalog-handle stand-in: the binder only needs name + schema."""

    def __init__(self, name, schema):
        self.name, self.schema = name, schema


class _Catalog:
    def __init__(self, **schemas):
        self.handles = {name: _Handle(name, schema)
                        for name, schema in schemas.items()}

    def lookup(self, name):
        return self.handles.setdefault(name, _Handle(name, _ANY))


def _head(sql: str, **schemas) -> Query:
    """The head query of a statement that leaves nothing for the client."""
    bound = bind_select(parse_sql(sql), _Catalog(**schemas))
    assert bound.tail == ()
    return bound.query


# --- basic statements ---------------------------------------------------------

def test_sql_and_verb_conditions_share_one_signature():
    """A WHERE clause binds to the condition the verb constructors build,
    so the region's bitstream identity is one string for both."""
    by_sql = _head("SELECT * FROM t WHERE a < 5 AND b < 2.0")
    by_verb = select_star(Compare("a", "<", 5) & Compare("b", "<", 2.0))
    assert by_sql.predicate == by_verb.predicate
    table = FTable("t", _ANY, 8)
    by_sql, by_verb = (compile_query(query, table, FarviewConfig()).signature
                       for query in (by_sql, by_verb))
    assert by_sql == by_verb
    assert by_sql.startswith("sel[")


def test_select_star():
    assert parse_sql("SELECT * FROM S").table == "S"
    query = _head("SELECT * FROM S")
    assert query.projection is None
    assert query.predicate is None


def test_select_columns():
    assert _head("SELECT a, b FROM t;").projection == ("a", "b")
    # Select order, not schema order, and never pruned to "all columns".
    assert _head("SELECT b, a FROM t;").projection == ("b", "a")


def test_table_qualified_columns_resolve():
    sql = "SELECT S.a FROM S WHERE S.c > 3.14;"
    assert parse_sql(sql).table == "S"
    query = _head(sql)
    assert query.projection == ("a",)
    assert query.predicate == Compare("c", ">", 3.14)


def test_keywords_case_insensitive():
    query = _head("select A From T wHeRe A < 5")
    assert query.predicate == Compare("A", "<", 5)


def test_paper_selection_query():
    """§6.4: SELECT * FROM S WHERE S.a < X AND S.b < Y."""
    query = _head("SELECT * FROM S WHERE S.a < 17 AND S.b < 0.5")
    assert query.predicate == And(Compare("a", "<", 17),
                                  Compare("b", "<", 0.5))


def test_distinct():
    query = _head("SELECT DISTINCT a FROM S")
    assert query.distinct
    assert query.projection == ("a",)


def test_group_by_sum():
    """§6.5: SELECT S.a, SUM(S.b) FROM S GROUP BY S.a."""
    q = _head("SELECT a, SUM(b) FROM S GROUP BY a")
    assert q.group_by == ("a",)
    assert len(q.aggregates) == 1
    assert q.aggregates[0].func == "sum"
    assert q.aggregates[0].column == "b"


def test_aggregates_with_aliases():
    specs = _head(
        "SELECT a, COUNT(*) AS n, AVG(b) AS mean FROM t GROUP BY a"
    ).aggregates
    assert [s.alias for s in specs] == ["n", "mean"]
    assert specs[0].column == "*"


def test_standalone_aggregate():
    query = _head("SELECT COUNT(*), MAX(a) FROM t")
    assert query.group_by is None
    assert len(query.aggregates) == 2


# --- WHERE expressions ------------------------------------------------------------

def test_boolean_nesting():
    query = _head(
        "SELECT * FROM t WHERE (a < 1 OR b > 2.0) AND NOT c = 3")
    expected = And(Or(Compare("a", "<", 1), Compare("b", ">", 2.0)),
                   Not(Compare("c", "==", 3)))
    assert query.predicate == expected


def test_operator_spellings():
    query = _head("SELECT * FROM t WHERE a <> 1 AND b != 2 AND c = 3")
    expected = And(And(Compare("a", "!=", 1), Compare("b", "!=", 2)),
                   Compare("c", "==", 3))
    assert query.predicate == expected


def test_string_literal_with_escaped_quote():
    query = _head("SELECT * FROM t WHERE s = 'it''s'")
    assert query.predicate == Compare("s", "==", "it's")


def test_regexp_term():
    query = _head("SELECT * FROM t WHERE s REGEXP 'far(view|sight)'")
    assert query.regex is not None
    assert query.regex.pattern == "far(view|sight)"
    assert query.predicate is None


def test_like_combined_with_predicate():
    query = _head(
        "SELECT * FROM t WHERE id < 100 AND s LIKE '%farview%'")
    assert query.predicate == Compare("id", "<", 100)
    assert query.regex is not None


# --- LIKE translation ----------------------------------------------------------------

def test_like_percent_and_underscore():
    regex = like_to_regex("a%b_c")
    assert regex == r"^a[\s\S]*b[\s\S]c$"
    compiled = CompiledRegex(regex)
    assert compiled.search(b"aXXXbYc")
    assert not compiled.search(b"aXXXbYYc")


def test_like_escapes_metacharacters():
    regex = like_to_regex("50.5%")
    compiled = CompiledRegex(regex)
    assert compiled.search(b"50.5 percent")
    assert not compiled.search(b"50x5 percent")


def test_like_is_full_match():
    compiled = CompiledRegex(like_to_regex("abc"))
    assert compiled.search(b"abc")
    assert not compiled.search(b"xabcx")  # SQL LIKE matches whole value


@pytest.mark.parametrize("pattern", ["a%", "a_b", "%b"])
def test_like_wildcards_match_a_newline_as_the_model_says(pattern):
    """``%`` / ``_`` are "any character": the engine's ``.`` skips a
    newline (right for REGEXP), so LIKE must not be spelled with it."""
    from repro.baselines.sql_model import execute_model
    from repro.core.api import FarviewClient
    from repro.core.node import FarviewNode
    from repro.sim.engine import Simulator

    schema = Schema([Column("k", "int64"), Column("s", "char", 16)])
    rows = schema.empty(4)
    rows["k"] = np.arange(4)
    rows["s"] = [b"ab", b"a\nb", b"xa", b"b"]
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    client.create_table("t", schema, rows)
    statement = f"SELECT k FROM t WHERE s LIKE '{pattern}'"
    _, expected = execute_model(statement, {"t": (schema, rows)})
    assert 1 in expected["k"], "the model keeps the embedded-newline row"
    result, _ = client.sql(statement)
    assert result.rows().tolist() == expected.tolist()


# --- syntax errors -------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "",
    "SELECT FROM t",
    "SELECT * t",
    "SELECT *, a FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t WHERE a <",
    "SELECT a FROM t WHERE a < 1 extra",
    "SELECT a FROM t GROUP BY",
    "SELECT a, SUM(b) FROM t",                    # aggregates need GROUP BY
    "SELECT b, SUM(b) FROM t GROUP BY a",         # b not in GROUP BY
    "SELECT a FROM t GROUP BY a",                 # GROUP BY needs aggregates
    "SELECT DISTINCT SUM(a) FROM t",
    "SELECT a FROM t WHERE s LIKE 5",
    "SELECT a FROM t WHERE s LIKE 'x' AND s LIKE 'y'",
    "SELECT a FROM t WHERE a < 1 OR s LIKE 'x'",  # regex under OR
    "SELECT a FROM t WHERE NOT s LIKE 'x'",
    "SELECT a FROM t WHERE a ~ 1",
])
def test_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse_sql(bad)


# --- end-to-end through the node ----------------------------------------------------------

@pytest.fixture
def bench():
    from repro.experiments.common import make_bench, upload_table
    from repro.workloads.generator import make_rows

    b = make_bench()
    schema = default_schema()
    rows = make_rows(schema, 512)
    rows["c"] = np.arange(512) % 7
    table = upload_table(b, "S", schema, rows)
    return b, rows, table


def test_sql_selection_end_to_end(bench):
    b, rows, table = bench
    result, _ = b.client.sql("SELECT * FROM S WHERE c < 3")
    expected = rows[rows["c"] < 3]
    np.testing.assert_array_equal(result.rows()["a"], expected["a"])


def test_sql_groupby_end_to_end(bench):
    b, rows, table = bench
    result, _ = b.client.sql(
        "SELECT c, COUNT(*) AS n FROM S GROUP BY c")
    got = {int(r["c"]): int(r["n"]) for r in result.rows()}
    expected = {}
    for v in rows["c"]:
        expected[int(v)] = expected.get(int(v), 0) + 1
    assert got == expected


def test_sql_distinct_end_to_end(bench):
    b, rows, table = bench
    result, _ = b.client.sql("SELECT DISTINCT c FROM S")
    assert sorted(result.rows()["c"].tolist()) == sorted(set(rows["c"].tolist()))


def test_sql_like_end_to_end():
    from repro.experiments.common import make_bench, upload_table
    from repro.workloads.generator import string_workload

    b = make_bench()
    schema, rows = string_workload(64, 64, match_fraction=0.5)
    table = upload_table(b, "docs", schema, rows)
    result, _ = b.client.sql("SELECT * FROM docs WHERE s LIKE '%farview%'")
    expected = {int(r["id"]) for r in rows if b"farview" in bytes(r["s"])}
    assert set(result.rows()["id"].tolist()) == expected


def test_sql_unknown_table_raises(bench):
    b, _, _ = bench
    from repro.common.errors import CatalogError
    with pytest.raises(CatalogError):
        b.client.sql("SELECT * FROM missing")


def test_ill_typed_statement_is_a_typed_error_on_every_placement(bench):
    """The ship path compiles no pipeline; it must still refuse what the
    compiler refuses, not crash inside a numpy kernel."""
    from repro.common.errors import FarviewError
    b, _, _ = bench
    for placement in ("offload", "ship", "auto"):
        with pytest.raises(FarviewError, match="must be char"):
            b.client.sql("SELECT a FROM S WHERE a LIKE 'x%'",
                         placement=placement)


def _pool_client():
    from repro.core.api import ClusterClient
    from repro.core.cluster import FarviewCluster
    from repro.sim.engine import Simulator

    client = ClusterClient(FarviewCluster(Simulator(), 2))
    client.open_connection()
    return client


def test_a_select_refused_for_an_unknown_table_runs_once_it_exists():
    """The catalog keeps no refusal and no binding past a drop: a SELECT
    refused with :class:`CatalogError` binds and runs after
    ``create_table``, is refused again after ``drop_table``, and reads
    the new rows once the name is created again, matching the serial
    model each time."""
    from repro.baselines.sql_model import execute_model
    from repro.common.errors import CatalogError
    from repro.core.api import canonical_result_bytes
    from repro.workloads.generator import make_rows

    client = _pool_client()
    statement = "SELECT a, c FROM late WHERE c < 3"
    schema = default_schema()
    for size in (256, 96):
        with pytest.raises(CatalogError):
            client.sql(statement)
        rows = make_rows(schema, size, seed=size)
        rows["c"] = np.arange(size) % 7
        table = client.create_table("late", schema, rows)
        result, _ = client.sql(statement)
        model_schema, model_rows = execute_model(statement,
                                                 {"late": (schema, rows)})
        assert canonical_result_bytes(result) == model_schema.to_bytes(
            model_rows)
        client.drop_table(table)


@pytest.mark.parametrize("statement", ["SELECT FROM S",
                                       "SELECT nope FROM S"])
def test_a_syntax_error_is_raised_on_every_call(statement):
    """A statement that fails to parse, or to bind, raises
    :class:`SqlSyntaxError` on every call, and the catalog keeps
    nothing for it."""
    client = _pool_client()
    client.create_table("S", default_schema(), default_schema().empty(8))
    for _ in range(3):
        with pytest.raises(SqlSyntaxError):
            client.sql(statement)
    assert statement not in client.catalog._prepared


# --- write statements (versioned write path) ----------------------------------

def test_insert_values():
    parsed = parse_sql(
        "INSERT INTO t VALUES (1, 2.5, 'x'), (-3, 4, 'y');")
    assert isinstance(parsed, ParsedWrite)
    assert parsed.kind == "insert"
    assert parsed.table == "t"
    assert parsed.values == ((1, 2.5, "x"), (-3, 4, "y"))


def test_update_set_where():
    parsed = parse_sql("UPDATE t SET a = 5, b = -2.5 WHERE c >= 10 AND d < 3")
    assert isinstance(parsed, ParsedWrite)
    assert parsed.kind == "update"
    assert parsed.assignments == (("a", 5), ("b", -2.5))
    assert parsed.predicate == And(Compare("c", ">=", 10),
                                   Compare("d", "<", 3))


def test_update_without_where_hits_every_row():
    parsed = parse_sql("UPDATE t SET a = 'z'")
    assert parsed.predicate is None
    assert parsed.assignments == (("a", "z"),)


def test_delete_from_where():
    parsed = parse_sql("DELETE FROM t WHERE a = 7;")
    assert isinstance(parsed, ParsedWrite)
    assert parsed.kind == "delete"
    assert parsed.predicate == Compare("a", "==", 7)


def test_delete_without_where():
    parsed = parse_sql("DELETE FROM t")
    assert parsed.kind == "delete" and parsed.predicate is None


def test_negative_literal_in_select_predicate():
    query = _head("SELECT * FROM t WHERE a > -5")
    assert query.predicate == Compare("a", ">", -5)


@pytest.mark.parametrize("bad", [
    "INSERT INTO t",                          # missing VALUES
    "INSERT INTO t VALUES ()",                # empty tuple
    "INSERT INTO t VALUES (1,)",              # dangling comma
    "UPDATE t SET",                           # missing assignment
    "UPDATE t SET a = 1, a = 2",              # duplicate column
    "UPDATE t SET a = 1 WHERE s LIKE 'x%'",   # regex stage in a write
    "DELETE FROM t WHERE s REGEXP 'a+'",      # regex stage in a write
    "UPDATE t SET a = -",                     # dangling minus
    "INSERT INTO t VALUES (1) trailing",      # trailing junk
    "/*+ placement(ship) */ DELETE FROM t",   # hints apply to reads only
])
def test_write_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse_sql(bad)


# --- JOIN clause (the §7 small-table join) -------------------------------------

def _schemas():
    probe = Schema([Column("k", "int64"), Column("v", "float64"),
                    Column("rate", "int64")])
    build = Schema([Column("id", "int64"), Column("rate", "float64"),
                    Column("zone", "int64")])
    return probe, build


def _join_head(sql: str) -> Query:
    probe, build = _schemas()
    return _head(sql, fact=probe, dim=build)


def test_join_clause_parses_qualified_on():
    sql = "SELECT fact.k, dim.rate FROM fact JOIN dim ON fact.k = dim.id"
    parsed = parse_sql(sql)
    assert parsed.table == "fact"
    join = parsed.ir.child               # Project -> Join(dim) -> Scan
    assert isinstance(join, Join)
    assert join.table == "dim"
    assert join.left == Col("k", "fact")
    assert join.right == Col("id", "dim")
    assert parsed.ir.items == ((Col("k", "fact"), None),
                               (Col("rate", "dim"), None))
    assert not parsed.ir.star
    # Resolution happens at bind time (build columns are unknown before).
    query = _join_head(sql)
    assert query.join.build_table.name == "dim"
    assert query.projection == ("k", "build_rate")


def test_inner_join_keyword_and_star():
    parsed = parse_sql("SELECT * FROM f INNER JOIN d ON f.a = d.b;")
    assert isinstance(parsed.ir.child, Join) and parsed.ir.star


def test_join_resolution_splits_select_list():
    query = _join_head(
        "SELECT fact.k, dim.rate, fact.v FROM fact JOIN dim "
        "ON fact.k = dim.id WHERE fact.v < 2.5")
    assert query.join.build_key == "id"
    assert query.join.probe_key == "k"
    assert query.join.payload == ("rate",)
    # Payload "rate" collides with a probe column -> renamed in the
    # projection, probe columns keep their order.
    assert query.projection == ("k", "build_rate", "v")
    assert query.predicate == Compare("v", "<", 2.5)


def test_join_resolution_unqualified_and_swapped_on_sides():
    query = _join_head("SELECT k, zone FROM fact JOIN dim ON id = k")
    assert (query.join.build_key, query.join.probe_key) == ("id", "k")
    assert query.join.payload == ("zone",)
    assert query.projection == ("k", "zone")


def test_join_resolution_build_key_select_maps_to_probe_key():
    query = _join_head(
        "SELECT dim.id, dim.zone FROM fact JOIN dim ON fact.k = dim.id")
    assert query.projection == ("k", "zone")
    assert query.join.payload == ("zone",)


def test_join_resolution_star_appends_non_key_build_columns():
    query = _join_head("SELECT * FROM fact JOIN dim ON fact.k = dim.id")
    assert query.projection is None
    assert query.join.payload == ("rate", "zone")


def test_join_resolution_semi_join_borrows_payload():
    query = _join_head("SELECT k, v FROM fact JOIN dim ON fact.k = dim.id")
    assert query.projection == ("k", "v")     # payload projected away
    assert len(query.join.payload) == 1


def test_join_resolution_errors():
    for statement, message in [
        ("SELECT k FROM fact JOIN dim ON other.k = dim.id",
         "unknown table qualifier"),
        ("SELECT k FROM fact JOIN dim ON fact.k = fact.v",
         "must relate"),
        ("SELECT k FROM fact JOIN dim ON fact.k = dim.nope",
         "unknown column"),
        ("SELECT fact.nope, dim.rate FROM fact JOIN dim "
         "ON fact.k = dim.id", "unknown column"),
    ]:
        with pytest.raises(SqlSyntaxError, match=message):
            _join_head(statement)


@pytest.mark.parametrize("bad", [
    "SELECT a FROM f JOIN",                       # missing build table
    "SELECT a FROM f JOIN d",                     # missing ON
    "SELECT a FROM f JOIN d ON a < b",            # non-equality
    "SELECT a FROM f INNER d ON a = b",           # INNER without JOIN
])
def test_join_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse_sql(bad)


def test_multi_join_parses_to_chained_stages():
    """Multi-way joins are no longer a syntax error: the IR chains one
    Join node per stage, and binding leaves the later stage (and the
    select list) to the client, in that order."""
    from repro.core.compile import BoundArm, BoundEval

    parsed = parse_sql(
        "SELECT a FROM f JOIN d ON a = b JOIN e ON c = k")
    join2 = parsed.ir.child          # Project -> Join(e) -> Join(d) -> Scan
    join1 = join2.child
    assert isinstance(join2, Join) and join2.table == "e"
    assert isinstance(join1, Join) and join1.table == "d"
    assert isinstance(join1.child, Scan) and join1.child.table == "f"

    bound = bind_select(parsed, _Catalog(
        f=_ints("a", "c"), d=_ints("b", "x"), e=_ints("k", "y")))
    assert [type(op) for op in bound.tail] == [BoundArm, BoundEval]
    assert bound.tail[0].table == "e"


# ---------------------------------------------------------------------------
# Error quality: positions, fragments, golden messages
# ---------------------------------------------------------------------------

def _error_for(statement: str) -> SqlSyntaxError:
    with pytest.raises(SqlSyntaxError) as excinfo:
        parse_sql(statement)
    return excinfo.value


def test_error_carries_position_and_fragment():
    err = _error_for("SELECT a FROM t WHERE a ** 3")
    assert err.position == len("SELECT a FROM t WHERE a ")
    assert err.fragment == "*"
    assert f"offset {err.position}" in str(err)


def test_error_position_survives_placement_hint():
    """Positions are measured in the *original* statement, so stripping
    the ``/*+ placement(...) */`` hint must not shift them."""
    plain = "SELECT a FROM t WHERE a ** 3"
    hinted = "/*+ placement(ship) */ " + plain
    assert _error_for(hinted).position == (_error_for(plain).position
                                           + len("/*+ placement(ship) */ "))


@pytest.mark.parametrize("statement,message", [
    ("SELECT *, a FROM t", "'\\*' cannot be mixed with other select items"),
    ("SELECT *, * FROM t", "'\\*' cannot be mixed with other select items"),
    ("SELECT a, * FROM t", "'\\*' cannot be mixed with other select items"),
    ("SELECT a FROM t ORDER BY", "expected a column"),
    ("SELECT a FROM t LIMIT x", "LIMIT expects"),
    ("SELECT a FROM t LIMIT -1", "LIMIT expects"),
    ("SELECT a FROM t HAVING COUNT(*) > 1", "HAVING requires GROUP BY"),
    ("SELECT a, COUNT(*) FROM t",
     "plain columns next to aggregates need a GROUP BY"),
])
def test_golden_error_messages(statement, message):
    with pytest.raises(SqlSyntaxError, match=message):
        parse_sql(statement)


def test_expression_item_without_alias_rejected_at_bind_time():
    """``SELECT (a + 1) FROM t`` parses (the IR is valid) but binding
    demands a deterministic output name."""
    parsed = parse_sql("SELECT (a + 1) FROM t ORDER BY a")
    with pytest.raises(SqlSyntaxError,
                       match="expression select items need an AS alias"):
        bind_select(parsed, _Catalog())


def test_star_mixing_rejected_under_distinct_too():
    with pytest.raises(SqlSyntaxError,
                       match="cannot be mixed with other select items"):
        parse_sql("SELECT DISTINCT *, a FROM t")


# ---------------------------------------------------------------------------
# Single-chain text is its head query: empty tail, sql() == far_view()
# ---------------------------------------------------------------------------

_FACT = Schema([Column("k", "int64"), Column("v", "float64"),
                Column("rate", "int64"), Column("s", "char", 16)])
_DIM = Schema([Column("id", "int64"), Column("rate", "float64"),
               Column("zone", "int64")])
_ON = "FROM fact JOIN dim ON fact.k = dim.id"


def _q(**fields):
    """A hand-written head query; ``join=(payload...)`` is resolved
    against the client's own ``dim`` handle."""
    payload = fields.pop("join", None)

    def make(dim) -> Query:
        join = JoinSpec(dim, "id", "k", payload) if payload else None
        return Query(join=join, label="sql", **fields)
    return make


_COUNT = AggregateSpec("count", "*", "n")

#: statement -> the Query the node's one operator chain runs for it.
SINGLE_CHAIN = {
    "plain": ("SELECT * FROM fact WHERE v < 0.5",
              _q(predicate=Compare("v", "<", 0.5))),
    "projected": ("SELECT rate, k FROM fact WHERE k >= 3",
                  _q(projection=("rate", "k"),
                     predicate=Compare("k", ">=", 3))),
    "every-column": ("SELECT k, v, rate, s FROM fact",
                     _q(projection=("k", "v", "rate", "s"))),
    "distinct": ("SELECT DISTINCT k FROM fact",
                 _q(projection=("k",), distinct=True)),
    "distinct-star": ("SELECT DISTINCT * FROM fact", _q(distinct=True)),
    "grouped": ("SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM fact GROUP BY k",
                _q(group_by=("k",),
                   aggregates=(_COUNT, AggregateSpec("sum", "v", "sv")))),
    "aggregate": ("SELECT COUNT(*) AS n, MAX(v) AS m FROM fact WHERE k < 9",
                  _q(predicate=Compare("k", "<", 9),
                     aggregates=(_COUNT, AggregateSpec("max", "v", "m")))),
    "like": ("SELECT k, s FROM fact WHERE s LIKE '%far%' AND k < 30",
             _q(projection=("k", "s"), predicate=Compare("k", "<", 30),
                regex=TextMatch(Col("s"), "%far%"))),
    "regexp": ("SELECT * FROM fact WHERE s REGEXP 'far(view|sight)'",
               _q(regex=TextMatch(Col("s"), "far(view|sight)", regexp=True))),
    "join-qualified-collision": (
        f"SELECT fact.k, dim.rate, fact.v {_ON} WHERE fact.v < 0.5",
        _q(projection=("k", "build_rate", "v"),
           predicate=Compare("v", "<", 0.5), join=("rate",))),
    "join-unqualified-swapped-on": (
        "SELECT k, zone FROM fact JOIN dim ON id = k",
        _q(projection=("k", "zone"), join=("zone",))),
    "join-build-key-select": (
        f"SELECT dim.id, dim.zone {_ON}",
        _q(projection=("k", "zone"), join=("zone",))),
    "join-select-order-payload": (
        f"SELECT zone, dim.rate, k {_ON}",
        _q(projection=("zone", "build_rate", "k"), join=("zone", "rate"))),
    "join-semi": (f"SELECT k, v {_ON}",
                  _q(projection=("k", "v"), join=("rate",))),
    "join-star": (f"SELECT * {_ON}", _q(join=("rate", "zone"))),
    "join-distinct": (f"SELECT DISTINCT zone {_ON}",
                      _q(projection=("zone",), distinct=True,
                         join=("zone",))),
    "join-grouped": (f"SELECT k, COUNT(*) AS n {_ON} GROUP BY k",
                     _q(group_by=("k",), aggregates=(_COUNT,),
                        join=("rate",))),
    "join-count": (f"SELECT COUNT(*) AS n {_ON}",
                   _q(aggregates=(_COUNT,), join=("rate",))),
}


def _twin(topology: str):
    """One of two identical worlds: a client with ``fact`` and ``dim``."""
    from repro.core.api import ClusterClient, FarviewClient
    from repro.core.cluster import FarviewCluster
    from repro.core.node import FarviewNode
    from repro.core.table import FTable
    from repro.sim.engine import Simulator

    rng = np.random.default_rng(5)
    fact = _FACT.empty(256)
    fact["k"] = np.arange(256) % 40
    fact["v"] = rng.random(256)
    fact["rate"] = rng.integers(0, 9, 256)
    words = [b"farview", b"farsight", b"nearview", b"far away"]
    fact["s"] = [words[i] for i in rng.integers(0, len(words), 256)]
    dim = _DIM.empty(32)
    dim["id"] = np.arange(32)
    dim["rate"] = rng.integers(0, 100, 32) * 0.25
    dim["zone"] = np.arange(32) % 4
    if topology == "cluster":
        client = ClusterClient(FarviewCluster(Simulator(), 2))
        client.open_connection()
        client.create_table("dim", _DIM, dim)
        client.create_table("fact", _FACT, fact)
        return client
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    for name, schema, rows in (("dim", _DIM, dim), ("fact", _FACT, fact)):
        table = FTable(name, schema, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
    return client


@pytest.mark.parametrize("topology", ["single", "cluster"])
@pytest.mark.parametrize("shape", SINGLE_CHAIN)
def test_single_chain_text_is_its_head_query(shape, topology):
    """Nothing is left for the client, the bound head is the hand-written
    Query field for field, and running the text costs exactly what
    running that Query costs — bytes and simulated time."""
    from repro.core.api import canonical_result_bytes

    statement, make = SINGLE_CHAIN[shape]
    by_sql, by_verb = _twin(topology), _twin(topology)
    bound = bind_select(parse_sql(statement), by_sql.catalog)
    assert bound.tail == ()
    assert bound.query == make(by_sql.catalog.lookup("dim"))

    sql_result, sql_ns = by_sql.sql(statement)
    verb_result, verb_ns = by_verb.far_view(
        by_verb.catalog.lookup("fact"), make(by_verb.catalog.lookup("dim")))
    assert (canonical_result_bytes(sql_result)
            == canonical_result_bytes(verb_result))
    assert sql_result.schema == bound.schema
    assert sql_ns == verb_ns


# ---------------------------------------------------------------------------
# Acceptance and output names are functions of the statement and the
# FROM-list schemas — never of which arm the cut picked for a join
# ---------------------------------------------------------------------------

def _ints(*names):
    return Schema([Column(n, "int64") for n in names])


_NAMING = dict(f=_ints("k", "x", "v", "j"), d=_ints("k", "x", "w"),
               e=_ints("j", "x", "z"))
_FD = "FROM f JOIN d ON f.k = d.k"
_FDE = _FD + " JOIN e ON f.j = e.j"


def _names(sql: str):
    return bind_select(parse_sql(sql), _Catalog(**_NAMING)).schema.names


@pytest.mark.parametrize("select,names", [
    ("SELECT d.x", ("build_x",)),
    ("SELECT DISTINCT d.x", ("build_x",)),
    ("SELECT MAX(d.x)", ("max_build_x",)),
    ("SELECT f.v AS x, d.x", ("x", "build_x")),
    ("SELECT d.w, d.k", ("w", "k")),
    ("SELECT *", ("k", "x", "v", "j", "build_x", "w")),
])
def test_output_names_do_not_depend_on_the_arm(select, names):
    """A filter on the joined table turns its join into a client arm
    over a pruned head: ``d.x`` used to come out as ``x`` there and as
    ``build_x`` on the unfiltered (on-chip) join, and ``f.v AS x, d.x``
    became ``duplicate column names in schema``."""
    assert _names(f"{select} {_FD}") == names
    assert _names(f"{select} {_FD} WHERE d.w > 3") == names


@pytest.mark.parametrize("where", ["", " WHERE d.w > 1", " WHERE e.z > 1"])
@pytest.mark.parametrize("select,both", [
    ("SELECT e.x, d.x", ("e.x", "d.x")),          # two items, one name
    ("SELECT DISTINCT e.x, d.x", ("e.x", "d.x")),
    ("SELECT *", ("d.x", "e.x")),
    ("SELECT e.x AS ex, d.x AS dx", ("d.x", "e.x")),     # one join-time name
    ("SELECT MAX(e.x) AS m, MIN(d.x) AS n", ("d.x", "e.x")),
])
def test_one_name_for_two_columns_is_one_typed_refusal(select, both, where):
    """Refused the same way whichever join is filtered — it used to be
    ``join_output_schema``'s OperatorError unfiltered and an accepted
    statement (``e.x`` as ``build_x``, ``d.x`` as ``x``) once ``d`` was
    filtered — and the message names both columns."""
    with pytest.raises(SqlSyntaxError, match="would both be named") as info:
        _names(f"{select} {_FDE}{where}")
    assert all(name in str(info.value) for name in both)


def test_join_name_refusals_reach_sql_callers_typed():
    """End to end: ``sql()`` raises the binder's SqlSyntaxError, never the
    join kernel's OperatorError."""
    from repro.core.api import FarviewClient
    from repro.core.node import FarviewNode
    from repro.core.table import FTable
    from repro.sim.engine import Simulator

    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    for name, schema in _NAMING.items():
        rows = schema.empty(8)
        for column in schema.names:
            rows[column] = np.arange(8)
        table = FTable(name, schema, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
    for placement in ("offload", "ship"):
        with pytest.raises(SqlSyntaxError, match="would both be named"):
            client.sql(f"SELECT e.x, d.x {_FDE}", placement=placement)
    result, _ = client.sql(
        "SELECT e.x, f.x AS fx FROM f JOIN e ON f.j = e.j WHERE e.z > 2")
    assert result.schema.names == ("build_x", "fx")
    assert result.rows()["build_x"].tolist() == [3, 4, 5, 6, 7]


def test_select_order_is_kept_over_an_aggregate():
    """The select list, not ``GROUP BY`` columns then aggregates, orders
    the output (the shared binder hid this from every sha comparison)."""
    schemas = dict(fact=_FACT, dim=_DIM)
    bound = bind_select(parse_sql(
        f"SELECT SUM(v) AS sv, k {_ON} GROUP BY k"), _Catalog(**schemas))
    assert bound.schema.names == ("sv", "k")
    bound = bind_select(parse_sql(
        "SELECT COUNT(*) AS n FROM fact GROUP BY k"), _Catalog(**schemas))
    assert bound.schema.names == ("n",)


def test_order_by_resolves_against_the_select_list_only():
    bound = bind_select(parse_sql("SELECT v AS key FROM f ORDER BY f.v"),
                        _Catalog(**_NAMING))
    assert bound.tail[-1].keys == (("key", True),)
    with pytest.raises(SqlSyntaxError, match="must appear in the select"):
        _names("SELECT v FROM f ORDER BY f.x")
    with pytest.raises(SqlSyntaxError, match="unknown column 'nosuch'"):
        _names("SELECT v FROM f ORDER BY nosuch")
