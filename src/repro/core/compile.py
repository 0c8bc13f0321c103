"""SQL compiler: tokenizer, parser -> relational-algebra IR, binder.

The front half of "the query compiler in Farview" (§4.2).  SQL text is
tokenized and parsed into the typed IR of :mod:`repro.core.ir`
(:func:`parse_sql` — no catalog, nothing resolved).  Every SELECT is
then bound by :func:`bind_select`, three steps on that one tree:

* :func:`resolve` fixes what the statement *means* against the catalog:
  every column qualified and typed, every refusal raised, every output
  column named — from the text and the FROM-list schemas alone.
* five ``Rel -> Rel`` rewrites (:data:`REWRITES`) move work towards the
  data without changing a row: WHERE conjuncts onto the Scan each reads
  (comparisons are ``column op literal``, so each reads one table),
  unused columns pruned, build keys read as the probe column they equal,
  expression aggregate arguments lifted, the co-located join promoted.
* :func:`cut` chooses *placement*, bottom-up: the run above the base
  Scan that fits the node's fixed chain regex -> selection -> join ->
  projection -> distinct | group-by | aggregate becomes the head
  :class:`~repro.core.query.Query`; everything above it is the client's
  ``tail``, one ``Bound*`` step node per operator in run order — each
  further join a :class:`BoundArm` whose filtered build read is its own,
  independently placed, Query.  The ``Bound*`` nodes are the one
  vocabulary of a chain: a Query lowers to them too, its filter and
  projection carrying the node's hints.  When nothing is left for the
  client the statement *is* its head query, and the clients run it as
  one.

The grammar, write statements included, is ``docs/SQL.md``.

Syntax and resolution errors are :class:`SqlSyntaxError` carrying the
token ``position`` and offending ``fragment`` (offsets are relative to
the *original* statement text, placement hint included).
"""

from __future__ import annotations

import enum
import re as _stdlib_re
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from ..common.errors import QueryError
from ..common.expr import check_condition, items_schema
from ..common.records import Schema
from ..operators.aggregate import (SUPPORTED_FUNCS, AggregateSpec,
                                   grouped_schema)
from .cluster import colocated_compatible
from .ir import (AggCall, Aggregate, Arith, BoolAnd, BoolNot, BoolOr, Cmp,
                 Col, Distinct, Expr, Filter, Join, Limit, Lit, Project, Rel,
                 Scan, Sort, TextMatch, conjoin, conjuncts, expr_columns,
                 expr_dtype, map_cols, render_expr, spine, subexprs)
from ..operators.join import join_output_schema
from .query import JoinSpec, Query


class SqlSyntaxError(QueryError):
    """The SQL text could not be parsed or resolved.

    ``position`` is the character offset into the original statement
    (``None`` when the error is not anchored to a token); ``fragment``
    is the offending token text.
    """

    def __init__(self, message: str, position: int | None = None,
                 fragment: str | None = None):
        super().__init__(message)
        self.position = position
        self.fragment = fragment


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

class _Kind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    PUNCT = "punct"
    END = "end"


_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "and", "or",
    "not", "as", "like", "regexp", "count", "sum", "min", "max", "avg",
    "insert", "into", "values", "update", "set", "delete",
    "join", "inner", "on",
    "order", "limit", "having", "asc", "desc",
}

_TOKEN_RE = _stdlib_re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|==|<|>|=)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
  | (?P<punct>[(),;*+/-])
""", _stdlib_re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: _Kind
    text: str
    pos: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is _Kind.KEYWORD and self.text == word


def _tokenize(sql: str, base: int = 0) -> list[_Token]:
    """Tokenize ``sql``; ``base`` shifts positions back onto the original
    statement when a placement hint was stripped off the front."""
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SqlSyntaxError(
                f"unexpected character {sql[pos]!r} at offset {base + pos}",
                position=base + pos, fragment=sql[pos])
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind, text = _Kind(match.lastgroup), match.group()
        if (kind is _Kind.IDENT and text.lower() in _KEYWORDS
                and "." not in text):
            kind, text = _Kind.KEYWORD, text.lower()
        tokens.append(_Token(kind, text, base + match.start()))
    tokens.append(_Token(_Kind.END, "", base + len(sql)))
    return tokens


# --------------------------------------------------------------------------
# Parse results
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedQuery:
    """A parsed SELECT: the FROM table's name and the relational-algebra
    DAG the statement parsed to, unresolved (:func:`bind_select` binds
    it); ``placement`` is the optional ``/*+ placement(...) */`` hint.
    """

    table: str
    ir: Rel = field(repr=False)
    placement: str | None = None


@dataclass(frozen=True)
class ParsedWrite:
    """A parsed write statement for the versioned write path.

    ``kind`` is ``"insert"`` (``values`` holds the literal tuples),
    ``"update"`` (``assignments`` holds ``column -> literal``), or
    ``"delete"``.  ``predicate`` is the parsed WHERE clause (``None``
    means every visible row).
    """

    kind: str
    table: str
    values: tuple[tuple[object, ...], ...] = ()
    assignments: tuple[tuple[str, object], ...] = ()
    predicate: Expr | None = None


#: Optimizer-style placement hint, accepted before the SELECT keyword.
_HINT_RE = _stdlib_re.compile(
    r"^\s*/\*\+\s*placement\s*\(\s*(auto|offload|ship)\s*\)\s*\*/",
    _stdlib_re.IGNORECASE)


def _strip_placement_hint(sql: str) -> tuple[str, str | None, int]:
    match = _HINT_RE.match(sql)
    if match is None:
        return sql, None, 0
    return sql[match.end():], match.group(1).lower(), match.end()


# --------------------------------------------------------------------------
# IR condition helpers (regex extraction)
# --------------------------------------------------------------------------

def _has_textmatch(expr: Expr) -> bool:
    return any(isinstance(node, TextMatch) for node in subexprs(expr))


def split_regex(condition: Optional[Expr]
                ) -> tuple[Optional[Expr], Optional[TextMatch]]:
    """Split a WHERE condition into (comparison tree, LIKE/REGEXP term).

    Farview's regex operator is a separate pipeline stage, AND-combined
    with the predicate: at most one text-match term is supported and it
    must be a top-level AND term (parentheses are transparent).
    """
    matches: list[TextMatch] = []
    rest: list[Expr] = []
    for term in conjuncts(condition):
        if isinstance(term, TextMatch):
            matches.append(term)
        elif not _has_textmatch(term):
            rest.append(term)
        elif isinstance(term, BoolNot):
            raise SqlSyntaxError("NOT cannot apply to LIKE/REGEXP")
        else:
            raise SqlSyntaxError(
                "LIKE/REGEXP cannot appear under OR; the regex stage "
                "is AND-combined with the predicate")
    if len(matches) > 1:
        raise SqlSyntaxError(
            "only one LIKE/REGEXP term is supported per query")
    return conjoin(rest), (matches[0] if matches else None)


def _unqualified(expr: Expr) -> Expr:
    """``expr`` over one table's own column names (qualifiers dropped)."""
    return map_cols(expr, lambda col: Col(col.name))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, sql: str):
        sql, self.placement, hint_end = _strip_placement_hint(sql)
        self.sql = sql
        self.tokens = _tokenize(sql, base=hint_end)
        self.index = 0

    # -- token helpers ---------------------------------------------------------
    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _fail(self, message: str, token: _Token) -> SqlSyntaxError:
        return SqlSyntaxError(message, position=token.pos,
                              fragment=token.text)

    def _accept(self, text: str) -> bool:
        """Consume the next token if it is the keyword / punctuation
        ``text``."""
        token = self._peek()
        if token.kind in (_Kind.KEYWORD, _Kind.PUNCT) and token.text == text:
            self.index += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if not self._accept(text):
            token = self._peek()
            wanted = text.upper() if text.isalpha() else repr(text)
            raise self._fail(
                f"expected {wanted} at offset {token.pos}, got "
                f"{token.text!r}", token)

    def _ident(self, what: str) -> str:
        token = self._advance()
        if token.kind is not _Kind.IDENT:
            raise self._fail(
                f"expected {what} at offset {token.pos}, got "
                f"{token.text!r}", token)
        return token.text

    def _column_name(self) -> str:
        # Strip the table qualifier (single-table statements).
        return self._ident("a column name").split(".")[-1]

    def _table_name(self) -> str:
        return self._ident("a table name").split(".")[-1]

    def _col_ref(self) -> Col:
        """A column reference keeping its table qualifier."""
        qualifier, _, name = self._ident("a column name").rpartition(".")
        return Col(name, qualifier or None)

    def _alias(self) -> Optional[str]:
        """``[AS ident]``."""
        if not self._accept("as"):
            return None
        token = self._advance()
        if token.kind is not _Kind.IDENT:
            raise self._fail(f"expected an alias at offset {token.pos}",
                             token)
        return token.text

    def _comma_list(self, item) -> list:
        out = [item()]
        while self._accept(","):
            out.append(item())
        return out

    def _comparison_op(self) -> str:
        token = self._advance()
        if token.kind is not _Kind.OP:
            raise self._fail(
                f"expected a comparison operator at offset {token.pos}, got "
                f"{token.text!r}", token)
        return {"=": "==", "<>": "!="}.get(token.text, token.text)

    # -- grammar ------------------------------------------------------------------
    def parse(self) -> ParsedQuery | ParsedWrite:
        writes = {"insert": self._insert, "update": self._update,
                  "delete": self._delete}
        token = self._peek()
        if token.kind is not _Kind.KEYWORD or token.text not in writes:
            return self._select()
        if self.placement is not None:
            raise SqlSyntaxError(
                "a /*+ placement(...) */ hint applies to reads only; "
                "write statements always execute at the node")
        return writes[token.text]()

    def _finish_statement(self) -> None:
        self._accept(";")
        if self._peek().kind is not _Kind.END:
            token = self._peek()
            raise self._fail(
                f"unexpected trailing input at offset {token.pos}: "
                f"{token.text!r}", token)

    def _literal(self) -> object:
        negative = self._accept("-")
        token = self._advance()
        if token.kind is _Kind.NUMBER:
            text = token.text
            value: object = float(text) if "." in text else int(text)
            return -value if negative else value
        if negative:
            raise self._fail(
                f"expected a number after '-' at offset {token.pos}", token)
        if token.kind is _Kind.STRING:
            return _unquote(token.text)
        raise self._fail(
            f"expected a literal at offset {token.pos}, got {token.text!r}",
            token)

    # -- write statements -------------------------------------------------------
    def _write_where(self) -> Expr | None:
        """Optional WHERE clause of a write statement (no regex stage)."""
        if not self._accept("where"):
            return None
        condition = self._condition(self._where_comparison)
        if _has_textmatch(condition):
            raise SqlSyntaxError(
                "LIKE/REGEXP is not supported in write statements (the "
                "write verbs evaluate comparison predicates only)")
        return _unqualified(condition)

    def _value_tuple(self) -> tuple[object, ...]:
        self._expect("(")
        values = self._comma_list(self._literal)
        self._expect(")")
        return tuple(values)

    def _insert(self) -> ParsedWrite:
        self._expect("insert")
        self._expect("into")
        table = self._table_name()
        self._expect("values")
        tuples = self._comma_list(self._value_tuple)
        self._finish_statement()
        return ParsedWrite(kind="insert", table=table, values=tuple(tuples))

    def _assignment(self) -> tuple[str, object]:
        column = self._column_name()
        token = self._advance()
        if token.kind is not _Kind.OP or token.text not in ("=", "=="):
            raise self._fail(
                f"expected '=' at offset {token.pos}, got "
                f"{token.text!r}", token)
        return column, self._literal()

    def _update(self) -> ParsedWrite:
        self._expect("update")
        table = self._table_name()
        self._expect("set")
        assignments = self._comma_list(self._assignment)
        columns = [column for column, _value in assignments]
        for column in columns:
            if columns.count(column) > 1:
                raise SqlSyntaxError(
                    f"column {column!r} assigned twice in SET")
        predicate = self._write_where()
        self._finish_statement()
        return ParsedWrite(kind="update", table=table,
                           assignments=tuple(assignments),
                           predicate=predicate)

    def _delete(self) -> ParsedWrite:
        self._expect("delete")
        self._expect("from")
        table = self._table_name()
        predicate = self._write_where()
        self._finish_statement()
        return ParsedWrite(kind="delete", table=table, predicate=predicate)

    # -- SELECT -> IR -----------------------------------------------------------
    def _select(self) -> ParsedQuery:
        self._expect("select")
        distinct = self._accept("distinct")
        star, items = self._select_list()
        self._expect("from")
        table = self._table_name()
        joins = []
        while (join := self._join_clause()) is not None:
            joins.append(join)
        condition: Optional[Expr] = None
        if self._accept("where"):
            condition = self._condition(self._where_comparison)
        group_cols: tuple[Col, ...] = ()
        if self._accept("group"):
            self._expect("by")
            group_cols = tuple(self._comma_list(self._col_ref))
        having: Optional[Expr] = None
        if self._accept("having"):
            having = self._condition(self._having_comparison)
        order: tuple[tuple[Col, bool], ...] = ()
        if self._accept("order"):
            self._expect("by")
            order = tuple(self._comma_list(self._order_key))
        limit: Optional[int] = None
        if self._accept("limit"):
            token = self._advance()
            if token.kind is not _Kind.NUMBER or "." in token.text:
                raise self._fail(
                    f"LIMIT expects an integer at offset {token.pos}, got "
                    f"{token.text!r}", token)
            limit = int(token.text)
        self._finish_statement()
        ir = _assemble_ir(table, joins, condition, group_cols, having,
                          star, items, distinct, order, limit)
        return ParsedQuery(table=table, ir=ir, placement=self.placement)

    def _join_clause(self) -> Optional[tuple[str, Col, Col]]:
        """``[INNER] JOIN ident ON column '=' column`` after FROM."""
        if self._accept("inner"):
            self._expect("join")
        elif not self._accept("join"):
            return None
        build = self._table_name()
        self._expect("on")
        left = self._col_ref()
        token = self._advance()
        if token.kind is not _Kind.OP or token.text not in ("=", "=="):
            raise self._fail(
                f"join ON clause must be an equality; got {token.text!r} "
                f"at offset {token.pos}", token)
        right = self._col_ref()
        return build, left, right

    def _select_list(self):
        star = False
        items: list[tuple[Expr, Optional[str]]] = []
        while True:
            token = self._peek()
            is_star = token.kind is _Kind.PUNCT and token.text == "*"
            if star or (is_star and items):
                raise self._fail(
                    "'*' cannot be mixed with other select items", token)
            if is_star:
                self._advance()
                star = True
            elif (token.kind is _Kind.KEYWORD
                    and token.text in SUPPORTED_FUNCS):
                items.append((self._agg_call(), None))
            else:
                items.append((self._expression(), self._alias()))
            if not self._accept(","):
                return star, items

    def _agg_call(self) -> AggCall:
        func = self._advance().text
        self._expect("(")
        arg: Optional[Expr] = None
        if not (func == "count" and self._accept("*")):
            arg = self._expression()
        self._expect(")")
        return AggCall(func, arg, self._alias() or "")

    # -- expressions ------------------------------------------------------------
    def _expression(self) -> Expr:
        left = self._term()
        while (self._peek().kind is _Kind.PUNCT
               and self._peek().text in ("+", "-")):
            op = self._advance().text
            left = Arith(op, left, self._term())
        return left

    def _term(self) -> Expr:
        left = self._factor()
        while (self._peek().kind is _Kind.PUNCT
               and self._peek().text in ("*", "/")):
            op = self._advance().text
            left = Arith(op, left, self._factor())
        return left

    def _factor(self) -> Expr:
        if self._accept("("):
            inner = self._expression()
            self._expect(")")
            return inner
        token = self._peek()
        if token.kind in (_Kind.NUMBER, _Kind.STRING) or (
                token.kind is _Kind.PUNCT and token.text == "-"):
            return Lit(self._literal())
        if token.kind is _Kind.IDENT:
            return self._col_ref()
        raise self._fail(
            f"expected an expression at offset {token.pos}, got "
            f"{token.text!r}", token)

    # -- boolean conditions -----------------------------------------------------
    def _condition(self, comparison) -> Expr:
        left = self._conjunction(comparison)
        while self._accept("or"):
            left = BoolOr(left, self._conjunction(comparison))
        return left

    def _conjunction(self, comparison) -> Expr:
        left = self._cond_factor(comparison)
        while self._accept("and"):
            left = BoolAnd(left, self._cond_factor(comparison))
        return left

    def _cond_factor(self, comparison) -> Expr:
        if self._accept("not"):
            return BoolNot(self._cond_factor(comparison))
        if self._accept("("):
            inner = self._condition(comparison)
            self._expect(")")
            return inner
        return comparison()

    def _where_comparison(self) -> Expr:
        column = self._col_ref()
        if self._peek().is_keyword("like") or self._peek().is_keyword("regexp"):
            regexp = self._advance().text == "regexp"
            pattern_token = self._advance()
            if pattern_token.kind is not _Kind.STRING:
                raise self._fail(
                    f"expected a string pattern at offset "
                    f"{pattern_token.pos}", pattern_token)
            return TextMatch(column, _unquote(pattern_token.text),
                             regexp=regexp)
        return Cmp(self._comparison_op(), column, Lit(self._literal()))

    def _having_comparison(self) -> Expr:
        token = self._peek()
        if token.kind is _Kind.KEYWORD and token.text in SUPPORTED_FUNCS:
            left: Expr = self._agg_call()
        else:
            left = self._col_ref()
        return Cmp(self._comparison_op(), left, Lit(self._literal()))

    def _order_key(self) -> tuple[Col, bool]:
        col = self._col_ref()
        if self._accept("desc"):
            return col, False
        self._accept("asc")
        return col, True


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")


# --------------------------------------------------------------------------
# IR assembly + validation
# --------------------------------------------------------------------------

def _assemble_ir(table: str, joins, condition, group_cols, having,
                 star: bool, items, distinct: bool, order,
                 limit: Optional[int]) -> Rel:
    """Stack the parsed clauses into the canonical IR shape, running the
    structural validations that need no catalog."""
    agg_items = [expr for expr, _alias in items if isinstance(expr, AggCall)]
    plain_items = [(expr, alias) for expr, alias in items
                   if not isinstance(expr, AggCall)]
    if not star and not items:
        raise SqlSyntaxError("empty select list")
    if distinct and agg_items:
        raise SqlSyntaxError("DISTINCT cannot be combined with aggregates")
    if having is not None and not group_cols:
        raise SqlSyntaxError("HAVING requires GROUP BY")
    if group_cols:
        if not agg_items:
            raise SqlSyntaxError("GROUP BY requires aggregate functions")
        group_names = {col.name for col in group_cols}
        missing = []
        for expr, alias in plain_items:
            if not isinstance(expr, Col):
                raise SqlSyntaxError(
                    "select expressions in a grouped query must be "
                    "aggregates or GROUP BY columns")
            if alias is not None:
                raise SqlSyntaxError(
                    "aliases on GROUP BY columns are not supported")
            if expr.name not in group_names:
                missing.append(expr.name)
        if missing:
            raise SqlSyntaxError(
                f"non-aggregated columns {missing} must appear in "
                f"GROUP BY")
    elif agg_items and plain_items:
        raise SqlSyntaxError(
            "plain columns next to aggregates need a GROUP BY")
    # Fires the regex-composition errors at parse time (the split itself
    # is redone during binding).
    split_regex(condition)
    for expr in agg_items:
        if _computed(expr) and not expr.alias:
            raise SqlSyntaxError(
                "aggregates over expressions need an AS alias")
    rel: Rel = Scan(table)
    for build, left, right in joins:
        rel = Join(rel, build, left, right)
    if condition is not None:
        rel = Filter(rel, condition)
    if agg_items:
        rel = Aggregate(rel, tuple(group_cols), tuple(agg_items), having)
    rel = Project(rel, items=tuple(items), star=star)
    if distinct:
        rel = Distinct(rel)
    if order:
        rel = Sort(rel, tuple(order))
    if limit is not None:
        rel = Limit(rel, limit)
    return rel


def parse_sql(sql: str) -> ParsedQuery | ParsedWrite:
    """Parse one SQL statement.

    SELECTs return a :class:`ParsedQuery` (table + offloadable Query);
    INSERT / UPDATE / DELETE return a :class:`ParsedWrite` for the
    versioned write path.
    """
    if not sql or not sql.strip():
        raise SqlSyntaxError("empty statement")
    return _Parser(sql).parse()


# --------------------------------------------------------------------------
# Client steps: the one vocabulary of client work
# --------------------------------------------------------------------------
# A SQL tail, a split Query's suffix and a view circuit's stages are lists
# of these nodes; ``kernel`` names the planner kernel that runs one.

@dataclass(frozen=True)
class BoundRegex:
    """Row filter by a LIKE / REGEXP match on one column."""

    match: TextMatch
    kernel = "regex"


@dataclass(frozen=True)
class BoundEval:
    """Expression projection onto ``items`` (``smart``: the node's hint)."""

    items: tuple[tuple[Expr, str], ...]
    smart: Optional[bool] = None
    kernel = "eval"


@dataclass(frozen=True)
class BoundFilter:
    """Row filter (WHERE, HAVING); the node may run it ``vectorized``."""

    predicate: Expr
    vectorized: bool = False
    kernel = "selection"


@dataclass(frozen=True)
class BoundAggregate:
    """(Grouped) aggregation; no ``group_by`` is the one global row."""

    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    kernel = "aggregate"


@dataclass(frozen=True)
class BoundDistinct:
    """Dedup on ``columns`` (``None``: every column), first row wins."""

    columns: Optional[tuple[str, ...]] = None
    kernel = "distinct"


@dataclass(frozen=True)
class BoundSort:
    """Deterministic stable sort; keys are ``(column, ascending)``."""

    keys: tuple[tuple[str, bool], ...]
    kernel = "sort"


@dataclass(frozen=True)
class BoundLimit:
    count: int
    kernel = "limit"


@dataclass(frozen=True)
class BoundArm:
    """One client-side build/probe join stage of the lowered DAG.

    ``query`` is the build side's own offloadable scan (predicate/regex
    pushed down, projected to key + payload) — ``None`` means a raw
    read.  ``probe_key`` names the key in the *current* intermediate.
    """

    build: object                       # catalog handle
    table: str
    query: Optional[Query]
    build_key: str
    probe_key: str
    payload: tuple[str, ...]
    kernel = "join"


@dataclass(frozen=True)
class BoundSelect:
    """A fully resolved SELECT, ready to execute.

    ``query`` is the head (stage-0) offloadable Query against ``base``;
    ``tail`` the client steps over its output, in run order; ``schema``
    is the final output schema.
    """

    base: object                        # catalog handle of the FROM table
    table: str
    query: Query
    tail: tuple[object, ...]
    schema: Schema


# --------------------------------------------------------------------------
# resolve: where a statement's meaning is fixed
# --------------------------------------------------------------------------

def _probe_column(col: Col, equal: dict[Col, Col]) -> Col:
    """A build key is the probe column it equals after the inner join
    (chained through multi-way joins)."""
    while col in equal:
        col = equal[col]
    return col


@dataclass(frozen=True)
class _Scope:
    """The FROM list a statement resolves against: its tables in FROM
    order, their schemas, and each ON clause as ``build key -> probe
    column``."""

    tables: tuple[str, ...]
    schemas: dict[str, Schema]
    equal: dict[Col, Col]

    def qualify(self, col: Col) -> Col:
        """``col`` under the table that owns it: the one the text names,
        else the first in FROM order with a column of that name."""
        if col.qualifier is not None:
            if col.qualifier not in self.schemas:
                raise SqlSyntaxError(
                    f"unknown table qualifier {col.qualifier!r}; the "
                    f"query reads {', '.join(repr(t) for t in self.tables)}")
            if col.name not in self.schemas[col.qualifier].names:
                raise SqlSyntaxError(
                    f"unknown column {col.qualifier}.{col.name}")
            return col
        for table in self.tables:
            if col.name in self.schemas[table].names:
                return Col(col.name, table)
        raise SqlSyntaxError(f"unknown column {col.name!r}")

    def canonical(self, col: Col) -> Col:
        return _probe_column(self.qualify(col), self.equal)

    def name(self, col: Col) -> str:
        """The one name a FROM-list column has above the joins:
        ``build_<name>`` exactly when an earlier FROM-list table has a
        column of that name."""
        col = self.canonical(col)
        earlier = self.tables[:self.tables.index(col.qualifier)]
        if any(col.name in self.schemas[table].names for table in earlier):
            return f"build_{col.name}"
        return col.name

    def dtype_of(self, col: Col):
        return self.schemas[col.qualifier].column(col.name).dtype


def _scope(rel: Rel, catalog) -> _Scope:
    """Look the FROM list up and settle each join's probe and build side."""
    nodes = spine(rel)
    joins = [node for node in reversed(nodes) if isinstance(node, Join)]
    tables = (nodes[-1].table,) + tuple(join.table for join in joins)
    for index, table in enumerate(tables):
        if table in tables[:index]:
            raise SqlSyntaxError(
                f"table {table!r} appears twice in FROM; self-joins are "
                f"not supported")
    schemas = {table: catalog.lookup(table).schema for table in tables}
    scope = _Scope(tables, schemas, {})
    for index, join in enumerate(joins, start=1):
        probe, key = scope.qualify(join.left), scope.qualify(join.right)
        if probe.qualifier == join.table:
            probe, key = key, probe
        if (key.qualifier != join.table
                or probe.qualifier not in tables[:index]):
            raise SqlSyntaxError(
                f"join ON must relate one column of {join.table!r} to one "
                f"column of an already-joined table")
        if len(schemas[join.table].names) == 1:
            raise SqlSyntaxError(
                f"joined table {join.table!r} has no columns besides the "
                f"key {key.name!r}; nothing to join in")
        scope.equal[key] = probe
    return scope


def _claim(taken: dict[str, Expr], name: str, expr: Expr, where: str) -> None:
    """Two columns that end up with one name are one refusal naming both."""
    if name in taken:
        raise SqlSyntaxError(
            f"{render_expr(taken[name])} and {render_expr(expr)} would both "
            f"be named {name!r} {where}")
    taken[name] = expr


def _resolve_join(rel: Join, scope: _Scope) -> Join:
    key = next(key for key in scope.equal if key.qualifier == rel.table)
    return replace(rel, left=scope.equal[key], right=key)


def _resolve_filter(rel: Filter, scope: _Scope) -> Filter:
    condition = map_cols(rel.condition, scope.qualify)
    for term in conjuncts(condition):
        if len({col.qualifier for col in expr_columns(term)}) != 1:
            raise SqlSyntaxError(
                "WHERE comparisons must reference exactly one table")
    return replace(rel, condition=condition)


def _computed(call: AggCall) -> bool:
    """Does the aggregate read an expression rather than a column?"""
    return call.arg is not None and not isinstance(call.arg, Col)


def _resolve_aggregate(rel: Aggregate, scope: _Scope) -> Aggregate:
    """Qualify the grouping, name every aggregate, and read HAVING as a
    condition over the node's own output columns."""
    group_by = tuple(scope.qualify(col) for col in rel.group_by)
    aggs = []
    for call in rel.aggs:
        call = map_cols(call, scope.qualify)
        if _computed(call):     # the parser made it carry an alias
            expr_dtype(call.arg, scope)
        elif not call.alias:
            source = "star" if call.arg is None else scope.name(call.arg)
            call = replace(call, alias=f"{call.func}_{source}")
        aggs.append(call)
    outputs = {scope.canonical(col): col for col in group_by}
    outputs.update((map_cols(replace(call, alias=""), scope.canonical),
                    Col(call.alias)) for call in aggs)
    having = rel.having and _resolve_having(rel.having, outputs, scope)
    return Aggregate(rel.child, group_by, tuple(aggs), having)


def _resolve_having(expr: Expr, outputs: dict, scope: _Scope) -> Expr:
    """HAVING compares a select-list aggregate (read as its output
    column) or a GROUP BY column with a literal."""
    if isinstance(expr, (BoolAnd, BoolOr)):
        return type(expr)(_resolve_having(expr.left, outputs, scope),
                          _resolve_having(expr.right, outputs, scope))
    if isinstance(expr, BoolNot):
        return BoolNot(_resolve_having(expr.operand, outputs, scope))
    wanted = map_cols(expr.left, scope.canonical)
    if isinstance(wanted, AggCall):
        wanted = replace(wanted, alias="")
    if wanted in outputs:
        return replace(expr, left=outputs[wanted])
    if isinstance(wanted, AggCall):
        raise SqlSyntaxError(
            "HAVING aggregates must also appear in the select list")
    raise SqlSyntaxError(
        f"HAVING column {wanted.name!r} must be a GROUP BY column")


def _resolve_project(rel: Project, scope: _Scope) -> Project:
    """Expand ``*``, qualify every item and fix its output name."""
    items: list[tuple[Expr, str]] = []
    if rel.star:    # every column but the build keys, in FROM order
        items = [(col, scope.name(col)) for table in scope.tables
                 for col in (Col(name, table)
                             for name in scope.schemas[table].names)
                 if col not in scope.equal]
    calls = iter(rel.child.aggs if isinstance(rel.child, Aggregate) else ())
    for expr, alias in rel.items:
        if isinstance(expr, AggCall):   # the child's aggs, in select order
            name = next(calls).alias
            items.append((Col(name), name))
        elif isinstance(expr, Col):
            items.append((scope.qualify(expr), alias or scope.name(expr)))
        elif alias is None:
            raise SqlSyntaxError("expression select items need an AS alias")
        else:
            expr = map_cols(expr, scope.qualify)
            expr_dtype(expr, scope)
            items.append((expr, alias))
    taken: dict[str, Expr] = {}
    for expr, name in items:
        _claim(taken, name, expr, "in the result; give one an AS alias")
    return replace(rel, items=tuple(items))


def _resolve_sort(rel: Sort, scope: _Scope) -> Sort:
    """An ORDER BY key is an output column: named as one, or a column the
    select list carries as a plain item."""
    items = next(n for n in spine(rel) if isinstance(n, Project)).items
    keys = []
    for col, ascending in rel.keys:
        names = [name for _expr, name in items
                 if col.qualifier is None and name == col.name] or [
            name for expr, name in items
            if isinstance(expr, Col) and expr.qualifier is not None
            and scope.canonical(expr) == scope.canonical(col)]
        if not names:
            raise SqlSyntaxError(
                f"ORDER BY column {col.name!r} must appear in the select "
                f"list")
        keys.append((Col(names[0]), ascending))
    return replace(rel, keys=tuple(keys))


_RESOLVERS = {Join: _resolve_join, Filter: _resolve_filter,
              Aggregate: _resolve_aggregate, Project: _resolve_project,
              Sort: _resolve_sort}


def _resolve(rel: Rel, scope: _Scope) -> Rel:
    if isinstance(rel, Scan):
        return rel
    rel = replace(rel, child=_resolve(rel.child, scope))
    return _RESOLVERS.get(type(rel), lambda node, _scope: node)(rel, scope)


def _columns_above_scans(rel: Rel) -> list[Col]:
    """Every table column a node above the scans reads, first use first
    (a pushed-down Filter reads its own scan, not the intermediate)."""
    exprs: list[Expr] = []
    for node in spine(rel):
        if isinstance(node, Project):
            exprs += [expr for expr, _alias in node.items]
        elif isinstance(node, Aggregate):
            exprs += node.group_by + node.aggs
        elif isinstance(node, Join):
            exprs += [node.left, node.right]
    return list(dict.fromkeys(col for expr in exprs
                              for col in expr_columns(expr) if col.qualifier))


def _check_joined_names(rel: Rel, scope: _Scope) -> None:
    """Refuse a statement whose joined columns cannot all carry their one
    name through the joins — judged on the FROM-list schemas alone, so
    acceptance never depends on which join the cut offloads."""
    base = scope.tables[0]
    taken: dict[str, Expr] = {
        name: Col(name, base) for name in scope.schemas[base].names}
    used = [scope.canonical(col) for col in _columns_above_scans(rel)]
    for table in scope.tables[1:]:
        # A semi-join still ships one payload column: the first non-key.
        columns = [col for col in used if col.qualifier == table] or [
            col for col in (Col(n, table) for n in scope.schemas[table].names)
            if col not in scope.equal][:1]
        for col in dict.fromkeys(columns):
            _claim(taken, scope.name(col), col,
                   "above the joins; cannot disambiguate the joined column")


def resolve(rel: Rel, catalog) -> Rel:
    """Qualify and type every column of a parsed SELECT against the
    catalog, and fix every output column's name.

    What a statement *means* is settled here, from its text and the
    FROM-list schemas alone: every catalog-dependent refusal, ``*``
    expanded, each join's probe (``left``) and build (``right``) side,
    every aggregate's alias, HAVING over the aggregate's output columns,
    ORDER BY keys as output columns.  *Where* a node runs is not — the
    rewrites and :func:`cut` choose that — and
    :mod:`repro.baselines.sql_model` interprets this function's output.
    """
    scope = _scope(rel, catalog)
    resolved = _resolve(rel, scope)
    _check_joined_names(resolved, scope)
    return resolved


# --------------------------------------------------------------------------
# Rewrites: Rel -> Rel over a resolved tree, each leaving its rows unchanged
# --------------------------------------------------------------------------

def _map_sources(rel: Rel, fn) -> Rel:
    """``rel`` with ``fn(source)`` in place of every FROM-list source:
    the base Scan and each Join's build side, each together with the
    Filter :func:`push_filters` put on it."""
    if isinstance(rel, Scan) or (isinstance(rel, Filter)
                                 and isinstance(rel.child, Scan)):
        return fn(rel)
    child = _map_sources(rel.child, fn)
    if isinstance(rel, Join):
        return replace(rel, child=child, build=fn(rel.build))
    return replace(rel, child=child)


def push_filters(rel: Rel, catalog) -> Rel:
    """Split WHERE into conjuncts and push each — the one LIKE / REGEXP
    term included — onto the Scan of the table it reads."""
    if isinstance(rel, Scan):
        return rel
    if not isinstance(rel, Filter):
        return replace(rel, child=push_filters(rel.child, catalog))
    terms: dict[str, list[Expr]] = {}
    for term in conjuncts(rel.condition):
        terms.setdefault(expr_columns(term)[0].qualifier, []).append(term)
    return _map_sources(rel.child, lambda scan: (
        Filter(scan, conjoin(terms[scan.table])) if scan.table in terms
        else scan))


def canonicalise_keys(rel: Rel, catalog) -> Rel:
    """Read every build key above its join as the probe column it
    equals, so no join has to carry its key as payload.  (A Filter keeps
    reading the table it sits on, key included.)"""
    if isinstance(rel, Scan):
        return rel
    probe = partial(_probe_column, equal={
        node.right: node.left for node in spine(rel)
        if isinstance(node, Join)})
    rel = replace(rel, child=canonicalise_keys(rel.child, catalog))
    if isinstance(rel, Join):
        return replace(rel, left=probe(rel.left))
    if isinstance(rel, Aggregate):
        return replace(
            rel, group_by=tuple(probe(col) for col in rel.group_by),
            aggs=tuple(map_cols(call, probe) for call in rel.aggs),
            having=rel.having and map_cols(rel.having, probe))
    if isinstance(rel, Project):
        return replace(rel, items=tuple(
            (map_cols(expr, probe), alias) for expr, alias in rel.items))
    return rel


def lift_aggregate_args(rel: Rel, catalog) -> Rel:
    """Compute every expression argument of an Aggregate in a Project
    under it (as ``_agg<i>``), beside the columns it passes through."""
    if isinstance(rel, Scan):
        return rel
    rel = replace(rel, child=lift_aggregate_args(rel.child, catalog))
    if not isinstance(rel, Aggregate) or not any(map(_computed, rel.aggs)):
        return rel
    passed = rel.group_by + tuple(call.arg for call in rel.aggs
                                  if isinstance(call.arg, Col))
    items: list[tuple[Expr, Optional[str]]] = [
        (col, None) for col in dict.fromkeys(passed)]
    aggs = list(rel.aggs)
    for index, call in enumerate(rel.aggs):
        if _computed(call):
            items.append((call.arg, f"_agg{index}"))
            aggs[index] = replace(call, arg=Col(f"_agg{index}"))
    return replace(rel, child=Project(rel.child, tuple(items)),
                   aggs=tuple(aggs))


def _pruned(source: Rel, needed: list[Col], catalog) -> Rel:
    table = spine(source)[-1].table
    names = catalog.lookup(table).schema.names
    keep = [Col(name, table) for name in names if Col(name, table) in needed]
    if not keep or len(keep) == len(names):
        return source
    return Project(source, tuple((col, None) for col in keep))


def prune_columns(rel: Rel, catalog) -> Rel:
    """Put a Project above every scan that reads fewer columns than its
    table has: what the nodes above it use, in schema order.  Needs
    :func:`push_filters` first (a WHERE still above the joins would lose
    the columns only it reads)."""
    return _map_sources(rel, partial(
        _pruned, needed=_columns_above_scans(rel), catalog=catalog))


def _unfiltered(source: Rel) -> bool:
    return not any(isinstance(node, Filter) for node in spine(source))


def promote_join(rel: Rel, catalog) -> Rel:
    """Move the first unfiltered join that is hash-co-located with the
    base table next to the base Scan, where the cut can offload it
    shard-local.  Not under ``SELECT *``, whose column order is the join
    order."""
    if isinstance(rel, Scan) or (isinstance(rel, Project) and rel.star):
        return rel
    if not isinstance(rel, Join):
        return replace(rel, child=promote_join(rel.child, catalog))
    joins = [node for node in reversed(spine(rel)) if isinstance(node, Join)]
    base = joins[0].child
    table = spine(base)[-1].table
    pick = next((join for join in joins
                 if _unfiltered(join.build) and join.left.qualifier == table
                 and colocated_compatible(
                     catalog.lookup(table), catalog.lookup(join.table),
                     join.left.name, join.right.name)), None)
    if pick is None or pick is joins[0]:
        return rel
    for join in [pick] + [other for other in joins if other is not pick]:
        base = replace(join, child=base)
    return base


#: The rewrites in the order :func:`bind_select` applies them.
REWRITES = (push_filters, canonicalise_keys, lift_aggregate_args,
            prune_columns, promote_join)


# --------------------------------------------------------------------------
# cut: where a statement's placement is chosen
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Cut:
    """The cut so far, walking up from the base Scan: what the head
    Query has absorbed, what was left to the client, and the
    intermediate at this point — its schema, and what each IR column
    reference is called in it."""

    base: object                        # catalog handle of the FROM table
    query: Query
    tail: tuple[object, ...]
    schema: Schema
    names: dict[Col, str]

    @property
    def head_open(self) -> bool:
        """Nothing runs at the client yet: the head can still grow."""
        return not self.tail

    def at_client(self, op, **changes) -> "_Cut":
        return replace(self, tail=self.tail + (op,), **changes)


def _physical(expr: Expr, names: dict[Col, str]) -> Expr:
    """``expr`` over the intermediate's own column names."""
    return map_cols(expr, lambda col: Col(names[col]))


def _scan_filter(condition: Expr, schema: Schema
                 ) -> tuple[Optional[Expr], Optional[TextMatch]]:
    """A pushed-down Filter as the chain's selection and regex stages,
    over the scanned table's own column names."""
    residual, tm = split_regex(_unqualified(condition))
    if residual is not None:
        check_condition(residual, schema)
    return residual, tm


def _sorts_above(above: list[Rel]) -> bool:
    """A client ORDER BY / LIMIT keeps the select list and DISTINCT at
    the client too: the gather order of a node-side DISTINCT would leak
    into sort ties."""
    return any(isinstance(node, (Sort, Limit)) for node in above)


def _cut_filter(cut: _Cut, node: Filter, above, catalog) -> _Cut:
    if not isinstance(node.child, Scan):
        raise QueryError("cut() needs push_filters: a Filter off its Scan")
    predicate, regex = _scan_filter(node.condition, cut.base.schema)
    return replace(cut, query=replace(cut.query, predicate=predicate,
                                      regex=regex))


def _cut_join(cut: _Cut, node: Join, above, catalog) -> _Cut:
    """The first join rides the head's on-chip hash when its build side
    is read whole; a filtered build — and every later join — is a client
    arm whose build read is its own, independently placed, Query."""
    handle = catalog.lookup(node.table)
    source, key = node.build, node.right.name
    kept = ([col.name for col, _alias in source.items]
            if isinstance(source, Project) else handle.schema.names)
    # A semi-join still has to ship one payload column: the first.
    payload = tuple(n for n in kept if n != key) or tuple(
        n for n in handle.schema.names if n != key)[:1]
    build_schema, probe_schema = handle.schema, cut.schema
    if cut.head_open and cut.query.join is None and _unfiltered(source):
        # The chain projects after it joins: a pruning projection the
        # head took on goes, the join reads the whole probe row.
        probe_schema = cut.base.schema
        cut = replace(cut, query=replace(
            cut.query, projection=None,
            join=JoinSpec(handle, key, cut.names[node.left], payload)))
    else:
        query = None
        if not _unfiltered(source):
            predicate, regex = _scan_filter(next(
                n for n in spine(source) if isinstance(n, Filter)).condition,
                handle.schema)
            query = Query(projection=tuple(n for n in handle.schema.names
                                           if n == key or n in payload),
                          predicate=predicate, regex=regex, label="sql")
            build_schema = build_schema.project(list(query.projection))
        cut = cut.at_client(BoundArm(handle, node.table, query, key,
                                     cut.names[node.left], payload))
    schema = join_output_schema(probe_schema, build_schema, list(payload))
    joined = zip(payload, schema.names[len(probe_schema.names):])
    return replace(cut, schema=schema, names={
        **cut.names, **{Col(p, node.table): name for p, name in joined}})


def _cut_project(cut: _Cut, node: Project, above, catalog) -> _Cut:
    """A pure column selection joins the head's projection stage — the
    select list only when nothing above it needs the client; ``*`` and
    an aggregate's own output order need no kernel at all; anything else
    is the client's ``eval``."""
    items = [(_physical(expr, cut.names), alias or cut.names[expr])
             for expr, alias in node.items]
    out = tuple(name for _expr, name in items)
    names = {(Col(alias) if alias else expr): name
             for (expr, alias), name in zip(node.items, out)}
    selection = all(isinstance(expr, Col) and expr.name == name
                    for expr, name in items)
    pruning = all(alias is None for _expr, alias in node.items)
    implied = node.star or isinstance(node.child, Aggregate)
    if implied and selection and out == cut.schema.names:
        return replace(cut, names=names)
    if (cut.head_open and selection and not cut.query.aggregates
            and (pruning or not _sorts_above(above))):
        schema = cut.query.post_join_schema(cut.base.schema)
        return replace(cut, query=replace(cut.query, projection=out),
                       schema=schema.project(list(out)), names=names)
    return cut.at_client(BoundEval(tuple(items)), names=names,
                         schema=items_schema(items, cut.schema))


def _cut_aggregate(cut: _Cut, node: Aggregate, above, catalog) -> _Cut:
    """Grouping over plain columns joins the head while it is open;
    HAVING is a client selection over the aggregate's output."""
    group = tuple(cut.names[col] for col in node.group_by)
    specs = tuple(AggregateSpec(
        call.func, "*" if call.arg is None else cut.names[call.arg],
        call.alias) for call in node.aggs)
    source = cut.schema
    if cut.head_open:
        # The grouping stages read the columns they name: no projection.
        cut = replace(cut, query=replace(
            cut.query, projection=None, group_by=group or None,
            aggregates=specs))
        source = cut.query.post_join_schema(cut.base.schema)
    else:
        cut = cut.at_client(BoundAggregate(group, specs))
    schema = grouped_schema(source, group, specs)
    names = {**dict(zip(node.group_by, group)),
             **{Col(call.alias): call.alias for call in node.aggs}}
    cut = replace(cut, schema=schema, names=names)
    if node.having is None:
        return cut
    predicate = _physical(node.having, names)
    check_condition(predicate, schema)
    return cut.at_client(BoundFilter(predicate))


def _cut_tail(cut: _Cut, node: Rel, above, catalog) -> _Cut:
    """DISTINCT joins the head on the select list's terms; ORDER BY and
    LIMIT are the client's."""
    if isinstance(node, Sort):
        return cut.at_client(BoundSort(tuple(
            (cut.names[col], ascending) for col, ascending in node.keys)))
    if isinstance(node, Limit):
        return cut.at_client(BoundLimit(node.count))
    if cut.head_open and not _sorts_above(above):
        return replace(cut, query=replace(cut.query, distinct=True))
    return cut.at_client(BoundDistinct())


_CUTS = {Filter: _cut_filter, Join: _cut_join, Project: _cut_project,
         Aggregate: _cut_aggregate, Distinct: _cut_tail, Sort: _cut_tail,
         Limit: _cut_tail}


def _payload_in_select_order(query: Query, base_schema: Schema) -> Query:
    """When the statement *is* its head query the join emits its payload
    in select order; under a client tail the payload stays in schema
    order, the shipped layout independent of the select list."""
    order = query.projection or ((query.group_by or ()) + tuple(
        spec.column for spec in query.aggregates))
    emitted = dict(zip(query.join.payload, query.post_join_schema(
        base_schema).names[len(base_schema.names):]))
    payload = sorted(query.join.payload, key=lambda p: (
        order.index(emitted[p]) if emitted[p] in order else len(order)))
    return replace(query, join=replace(query.join, payload=tuple(payload)))


def cut(rel: Rel, catalog) -> BoundSelect:
    """Lower a resolved, rewritten DAG onto the engine, bottom-up.

    The maximal run of nodes above the base Scan that the node's fixed
    chain (regex -> selection -> join -> projection -> distinct |
    group-by | aggregate) can run merges into the head
    :class:`~repro.core.query.Query`, the Filter and Project on a build
    Scan into that arm's Query, and every other node becomes a step node
    of the client ``tail``.  This is the only place that decides what a
    node runs.
    """
    nodes = spine(rel)[::-1]
    table = nodes[0].table
    base = catalog.lookup(table)
    state = _Cut(base, Query(label="sql"), (), base.schema,
                 {Col(name, table): name for name in base.schema.names})
    for index, node in enumerate(nodes[1:], start=2):
        state = _CUTS[type(node)](state, node, nodes[index:], catalog)
    query = state.query
    if state.head_open and query.join is not None:
        query = _payload_in_select_order(query, base.schema)
    return BoundSelect(base=base, table=table, query=query, tail=state.tail,
                       schema=state.schema)


def bind_select(parsed: ParsedQuery, catalog) -> BoundSelect:
    """Bind a parsed SELECT against the catalog: :func:`resolve` fixes
    what it means, the :data:`REWRITES` move work towards the data, and
    :func:`cut` chooses what runs where."""
    rel = resolve(parsed.ir, catalog)
    for rewrite in REWRITES:
        rel = rewrite(rel, catalog)
    return cut(rel, catalog)

