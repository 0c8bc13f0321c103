"""Query descriptors, FTable, catalog, and the pipeline compiler."""

import pytest

from repro.common.config import FarviewConfig
from repro.common.errors import (
    CatalogError,
    PipelineCompilationError,
    QueryError,
)
from repro.common.expr import Col, TextMatch
from repro.common.records import (Column, Schema, default_schema,
                                  string_schema, wide_schema)
from repro.core.catalog import Catalog
from repro.core.pipeline_compiler import (choose_smart_addressing,
                                          compile_chain, compile_query,
                                          operator_chain)
from repro.core.query import (JoinSpec, Query, group_by_sum,
                              select_distinct, select_star)
from repro.core.table import FTable
from repro.operators.aggregate import AggregateSpec
from repro.operators.selection import Compare

CONFIG = FarviewConfig()


def make_table(schema=None, rows=100, **kw):
    return FTable("t", schema if schema is not None else default_schema(),
                  rows, **kw)


# --- FTable -------------------------------------------------------------------

def test_table_size():
    table = make_table(rows=10)
    assert table.size_bytes == 640


def test_table_requires_allocation():
    table = make_table()
    assert not table.allocated
    with pytest.raises(CatalogError):
        table.require_allocated()


def test_encrypted_table_needs_keys():
    with pytest.raises(CatalogError):
        FTable("e", default_schema(), 1, encrypted=True)


def test_table_validate_rows():
    table = make_table(rows=2)
    rows = default_schema().empty(2)
    table.validate_rows(rows)
    with pytest.raises(QueryError):
        table.validate_rows(default_schema().empty(3))
    with pytest.raises(QueryError):
        table.validate_rows(wide_schema(128).empty(2))


# --- catalog --------------------------------------------------------------------

def test_catalog_register_lookup():
    cat = Catalog()
    table = cat.register(make_table())
    assert cat.lookup("t") is table
    assert "t" in cat
    assert len(cat) == 1
    assert cat.names == ["t"]


def test_catalog_duplicate_rejected():
    cat = Catalog()
    cat.register(make_table())
    with pytest.raises(CatalogError):
        cat.register(make_table())


def test_catalog_missing_lookup():
    cat = Catalog()
    with pytest.raises(CatalogError):
        cat.lookup("missing")
    with pytest.raises(CatalogError):
        cat.deregister("missing")


# --- query validation ----------------------------------------------------------------

def test_query_builders():
    q = select_star(Compare("a", "<", 5))
    assert q.predicate is not None and q.projection is None
    q2 = select_distinct(["a"])
    assert q2.distinct and q2.projection == ("a",)
    q3 = group_by_sum("a", "b")
    assert q3.group_by == ("a",) and len(q3.aggregates) == 1


def test_query_invalid_combinations():
    with pytest.raises(QueryError):
        Query(group_by=("a",))  # no aggregates
    with pytest.raises(QueryError):
        Query(distinct=True, group_by=("a",),
              aggregates=(AggregateSpec("sum", "b"),))
    with pytest.raises(QueryError):
        Query(distinct_columns=("a",))  # without distinct
    with pytest.raises(QueryError):
        Query(projection=())
    with pytest.raises(QueryError):
        Query(smart_addressing=True, vectorized=True,
              projection=("a",))
    with pytest.raises(QueryError):
        Query(encrypt_output=(b"short", b"x" * 12))


def test_a_hint_without_the_step_it_rides_is_refused():
    """Lanes widen the filter and smart addressing reads the projection:
    without that step a hint has no node to ride.  (A vectorized query
    without a predicate used to compile to a ``vec`` that did nothing:
    ``vec|proj[a]`` ingested at ``proj[a]``'s rate.)"""
    with pytest.raises(QueryError, match="vectorized selection needs"):
        Query(projection=("a",), vectorized=True)
    with pytest.raises(QueryError, match="smart addressing needs"):
        Query(predicate=Compare("a", "<", 5), smart_addressing=True)
    Query(smart_addressing=False)          # standard is every scan's


def test_query_validates_against_schema():
    schema = default_schema()
    Query(projection=("a", "b")).validate(schema)
    with pytest.raises(QueryError):
        Query(projection=("zz",)).validate(schema)
    with pytest.raises(QueryError):
        Query(regex=TextMatch(Col("a"), "x")).validate(schema)  # not char
    with pytest.raises(QueryError):
        Query(projection=("a",), group_by=("c",),
              aggregates=(AggregateSpec("sum", "a"),)).validate(schema)


def test_post_join_stages_validate_against_the_post_join_schema():
    """DISTINCT columns, GROUP BY keys and aggregate inputs sit after the
    join in the chain, so payload columns (and their ``build_`` collision
    renames) are visible to them; selection and regex still read the
    probe table."""
    from repro.common.records import Column, Schema
    from repro.core.query import JoinSpec

    probe = Schema([Column("k", "int64"), Column("v", "float64")])
    build = FTable("dim", Schema([Column("id", "int64"),
                                  Column("v", "float64"),
                                  Column("zone", "int64")]), 4)
    join = JoinSpec(build, "id", "k", ("zone", "v"))
    Query(join=join, group_by=("zone",),
          aggregates=(AggregateSpec("sum", "v", "s"),
                      AggregateSpec("max", "build_v", "m"))).validate(probe)
    Query(join=join, distinct=True,
          distinct_columns=("zone",)).validate(probe)
    with pytest.raises(QueryError):
        Query(join=join, group_by=("nope",),
              aggregates=(AggregateSpec("count", "*", "n"),)).validate(probe)
    with pytest.raises(QueryError):
        Query(join=join, predicate=Compare("zone", "<", 2)).validate(probe)


def test_query_signature_stable_and_distinct():
    table = make_table()

    def signature(query):
        return compile_query(query, table, CONFIG).signature

    q1 = select_star(Compare("a", "<", 5))
    q2 = select_star(Compare("a", "<", 5))
    q3 = select_star(Compare("a", "<", 6))
    assert signature(q1) == signature(q2)
    assert signature(q1) != signature(q3)
    assert signature(Query()) == "raw-read"


# --- smart addressing planning (Figure 7 rule) ------------------------------------------

def test_planner_prefers_standard_for_narrow_tuples():
    schema = wide_schema(256)
    q = Query(projection=("a", "b", "c"))
    assert not choose_smart_addressing(operator_chain(q), schema, CONFIG)


def test_planner_prefers_smart_for_wide_tuples():
    schema = wide_schema(512)
    q = Query(projection=("a", "b", "c"))
    assert choose_smart_addressing(operator_chain(q), schema, CONFIG)


def test_planner_honours_explicit_choice():
    schema = wide_schema(512)
    q = Query(projection=("a",), smart_addressing=False)
    assert not choose_smart_addressing(operator_chain(q), schema, CONFIG)
    q2 = Query(projection=("a",), smart_addressing=True)
    assert choose_smart_addressing(operator_chain(q2), schema, CONFIG)


def test_planner_rejects_sa_for_non_projection_queries():
    schema = wide_schema(512)
    q = Query(predicate=Compare("a", "<", 5))
    assert not choose_smart_addressing(operator_chain(q), schema, CONFIG)


# --- compiler ------------------------------------------------------------------------------

def test_compile_selection_query():
    table = make_table()
    compiled = compile_query(select_star(Compare("a", "<", 5)), table, CONFIG)
    assert compiled.ingest_mode == "standard"
    assert "selection" in compiled.resource_operators
    assert compiled.output_schema == table.schema


def test_compile_vectorized_sets_lanes_and_rate():
    table = make_table()
    compiled = compile_query(
        select_star(Compare("a", "<", 5), vectorized=True), table, CONFIG)
    assert compiled.ingest_mode == "vectorized"
    assert compiled.pipeline.row_ops[0].lanes >= 2
    assert compiled.ingest_rate > CONFIG.operator_stack.region_throughput


def test_compile_smart_addressing_query():
    table = FTable("w", wide_schema(512), 100)
    compiled = compile_query(Query(projection=("a", "b", "c")), table, CONFIG)
    assert compiled.ingest_mode == "smart"
    assert compiled.sa_plan is not None
    assert compiled.output_schema.names == ("a", "b", "c")


def test_compile_join_loads_the_build_side_on_chip():
    dim = FTable("dim", default_schema(), 8)
    compiled = compile_query(Query(join=JoinSpec(dim, "a", "a", ("b",))),
                             make_table(), CONFIG)
    assert "join_small_table" in compiled.pipeline.operator_names
    assert compiled.join_build.base is dim


def test_compile_rejects_encrypted_table_without_decrypt():
    table = FTable("e", default_schema(), 10, encrypted=True,
                   key=b"k" * 16, nonce=b"n" * 12)
    with pytest.raises(QueryError):
        compile_query(select_star(Compare("a", "<", 5)), table, CONFIG)


def test_compile_rejects_decrypt_of_plain_table():
    table = make_table()
    with pytest.raises(QueryError):
        compile_query(Query(decrypt_input=True), table, CONFIG)


def test_compile_decrypting_query():
    table = FTable("e", default_schema(), 10, encrypted=True,
                   key=b"k" * 16, nonce=b"n" * 12)
    compiled = compile_query(
        Query(predicate=Compare("a", "<", 5), decrypt_input=True),
        table, CONFIG)
    assert "decryption" in compiled.resource_operators


def test_compile_groupby_and_distinct_and_agg():
    table = make_table()
    gb = compile_query(group_by_sum("a", "b"), table, CONFIG)
    assert "groupby" in gb.resource_operators
    assert gb.output_schema.names == ("a", "sum_b")
    d = compile_query(select_distinct(["a"]), table, CONFIG)
    assert "distinct" in d.resource_operators
    agg = compile_query(
        Query(aggregates=(AggregateSpec("count", "*"),)), table, CONFIG)
    assert "aggregation" in agg.resource_operators


def test_compile_regex_query():
    table = FTable("s", string_schema(64), 10)
    compiled = compile_query(
        Query(regex=TextMatch(Col("s"), "abc|def", regexp=True)), table, CONFIG)
    assert "regex" in compiled.resource_operators


def test_compile_always_includes_pack_send():
    table = make_table()
    compiled = compile_query(Query(), table, CONFIG)
    assert compiled.resource_operators[-2:] == ["packing", "sending"]


# --- the region signature: golden strings --------------------------------------
# Captured from the compiler before it walked the operator chain: a
# region is reused exactly when these strings match, so they never move.

_KEY, _NONCE = b"k" * 16, b"n" * 12
_SCHEMA = Schema([Column("a", "int64", 8), Column("b", "int64", 8),
                  Column("s", "char", 16)]
                 + [Column(f"p{i}", "int64", 8) for i in range(4)])
_PLAIN = FTable("t", _SCHEMA, 100)
_ENCRYPTED = FTable("e", _SCHEMA, 100, encrypted=True, key=_KEY,
                    nonce=_NONCE)
_DIM = FTable("dim", Schema([Column("id", "int64", 8),
                             Column("rate", "int64", 8)]), 8)
_LT5 = Compare("a", "<", 5)
_LIKE = TextMatch(Col("s"), "%far%")


def _join():
    return JoinSpec(_DIM, "id", "a", ("rate",))


@pytest.mark.parametrize("query, table, signature", [
    (Query(), _PLAIN, "raw-read"),
    (Query(decrypt_input=True), _ENCRYPTED, "dec"),
    (Query(regex=_LIKE), _PLAIN, r"regex[s:^[\s\S]*far[\s\S]*$]"),
    (Query(regex=TextMatch(Col("s"), "ab|cd", regexp=True)), _PLAIN,
     "regex[s:ab|cd]"),
    (select_star(_LT5), _PLAIN, "sel[a < 5]"),
    (Query(join=_join()), _PLAIN, "join[dim.id=a]"),
    (Query(projection=("a", "b")), _PLAIN, "proj[a,b]"),
    (Query(distinct=True), _PLAIN, "distinct[*]"),
    (Query(projection=("a", "b"), distinct=True, distinct_columns=("a",)),
     _PLAIN, "proj[a,b]|distinct[a]"),
    (group_by_sum("a", "b"), _PLAIN, "groupby[a;sum(b)]"),
    (Query(aggregates=(AggregateSpec("count", "*"),
                       AggregateSpec("max", "b"))), _PLAIN,
     "agg[count(*),max(b)]"),
    (select_star(_LT5, vectorized=True), _PLAIN, "sel[a < 5]|vec"),
    # ``vec`` follows every scan-side operator, the join included.
    (Query(predicate=_LT5, join=_join(), vectorized=True), _PLAIN,
     "sel[a < 5]|join[dim.id=a]|vec"),
    (Query(predicate=_LT5, projection=("a",), vectorized=True), _PLAIN,
     "sel[a < 5]|vec|proj[a]"),
    (Query(projection=("a",), encrypt_output=(_KEY, _NONCE)), _PLAIN,
     "proj[a]|enc"),
    (Query(decrypt_input=True, regex=_LIKE, predicate=_LT5, join=_join(),
           projection=("a", "rate"), group_by=("a",),
           aggregates=(AggregateSpec("sum", "rate"),), vectorized=True,
           encrypt_output=(_KEY, _NONCE)), _ENCRYPTED,
     r"dec|regex[s:^[\s\S]*far[\s\S]*$]|sel[a < 5]|join[dim.id=a]|vec|"
     r"proj[a,rate]|groupby[a;sum(rate)]|enc"),
])
def test_region_signature_is_golden(query, table, signature):
    compiled = compile_query(query, table, CONFIG)
    assert compiled.signature == signature
    assert compiled.pipeline.name == signature


@pytest.mark.parametrize("predicate, refusal", [
    (None, "smart addressing cannot decrypt scattered CTR reads in this "
           "prototype; use standard projection"),
    (_LT5, "smart addressing supports projection-only queries"),
])
def test_forced_smart_addressing_refusals_on_an_encrypted_table(predicate,
                                                                 refusal):
    """A decrypt ahead of the projection is not what makes a query
    ineligible: the projection-only check skips it, and the encryption
    check refuses next."""
    query = Query(projection=("a",), predicate=predicate,
                  decrypt_input=True, smart_addressing=True)
    with pytest.raises(PipelineCompilationError) as exc:
        compile_query(query, _ENCRYPTED, CONFIG)
    assert str(exc.value) == refusal


def test_fragment_drops_vectorized_once_the_filter_is_cut():
    """The lanes ride the filter node: a slice without it compiles
    without them, one with it compiles exactly as the whole chain's
    prefix did when fragments were Queries."""
    chain = operator_chain(Query(regex=_LIKE, predicate=_LT5,
                                 projection=("a",), vectorized=True))
    compiled = [compile_chain(chain[:k], _PLAIN, CONFIG) for k in (1, 2, 3)]
    assert [c.ingest_mode for c in compiled] == [
        "standard", "vectorized", "vectorized"]
    assert [c.signature for c in compiled] == [
        r"regex[s:^[\s\S]*far[\s\S]*$]",
        r"regex[s:^[\s\S]*far[\s\S]*$]|sel[a < 5]|vec",
        r"regex[s:^[\s\S]*far[\s\S]*$]|sel[a < 5]|vec|proj[a]"]


def test_a_slice_carries_the_smart_hint_of_its_projection():
    """The smart-addressing hint rides the projection node: the slice
    that is that projection honours it, and a longer chain holding it
    is refused as the whole Query is."""
    wide = FTable("w", wide_schema(512), 100)
    for hint, mode in ((None, "smart"), (False, "standard"),
                       (True, "smart")):
        query = Query(projection=("a", "b", "c"), distinct=True,
                      smart_addressing=hint)
        chain = operator_chain(query)
        assert compile_chain(chain[:1], wide, CONFIG).ingest_mode == mode
        if hint:
            with pytest.raises(PipelineCompilationError,
                               match="projection-only"):
                compile_query(query, wide, CONFIG)
        else:
            assert compile_query(query, wide,
                                 CONFIG).ingest_mode == "standard"
