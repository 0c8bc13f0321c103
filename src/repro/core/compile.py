"""SQL compiler: tokenizer, parser -> relational-algebra IR, lowering.

The front half of "the query compiler in Farview" (§4.2).  SQL text is
tokenized and parsed into the typed IR of :mod:`repro.core.ir`
(:func:`parse_sql` — no catalog, nothing resolved), and every SELECT is
then *bound* by :func:`bind_select`, the one name-resolution /
type-check pass, which compiles the DAG down to

* one offloadable head :class:`~repro.core.query.Query` — the node's
  fixed chain regex -> selection -> join -> projection -> distinct |
  group-by | aggregate, with the first unfiltered join riding it as a
  :class:`~repro.core.query.JoinSpec`;
* a chain of client-side build/probe join stages (:class:`BoundArm` —
  each arm's build read is itself an offloadable Query, independently
  placeable);
* a tail of deterministic client kernels (:class:`BoundEval` /
  :class:`BoundAggregate` / :class:`BoundFilter` / :class:`BoundSort` /
  :class:`BoundLimit` / :class:`BoundDistinct`).

When nothing is left for the client — no arms, no aggregate the head
cannot run, no HAVING / ORDER BY / LIMIT, a select list of ``*`` or
unaliased plain columns — the projection and DISTINCT are pushed into
the head too and the tail is empty: the statement *is* its head query,
and the clients run it as one.

WHERE comparisons are restricted to ``column op literal`` so every
conjunct references exactly one table: the bind pass partitions the
predicate per table and pushes each piece into the scan of its table
(the head query or a join arm) — REMOP-style placement over the DAG
falls out of composing :func:`~repro.core.planner.plan_placement` per
stage.

The grammar, write statements included, is ``docs/SQL.md``.

Syntax and resolution errors are :class:`SqlSyntaxError` carrying the
token ``position`` and offending ``fragment`` (offsets are relative to
the *original* statement text, placement hint included).
"""

from __future__ import annotations

import enum
import re as _stdlib_re
from dataclasses import dataclass, field, replace
from typing import Optional

from ..common.errors import QueryError
from ..common.records import Column, Schema
from ..operators.aggregate import SUPPORTED_FUNCS, AggregateSpec
from ..operators.selection import And, Compare, Not, Or, Predicate
from .cluster import (aggregate_output_schema, colocated_compatible,
                      group_output_schema)
from .ir import (AggCall, Aggregate, Arith, BoolAnd, BoolNot, BoolOr, Cmp,
                 Col, Distinct, Expr, Filter, Join, Limit, Lit, Project, Rel,
                 Scan, Sort, TextMatch, conjoin, conjuncts, expr_columns,
                 expr_dtype)
from ..operators.join import join_output_schema
from .query import JoinSpec, Query, RegexFilter


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
        text = match.group()
        start = base + match.start()
        if match.lastgroup == "ident":
            lowered = text.lower()
            if lowered in _KEYWORDS and "." not in text:
                tokens.append(_Token(_Kind.KEYWORD, lowered, start))
            else:
                tokens.append(_Token(_Kind.IDENT, text, start))
        elif match.lastgroup == "number":
            tokens.append(_Token(_Kind.NUMBER, text, start))
        elif match.lastgroup == "string":
            tokens.append(_Token(_Kind.STRING, text, start))
        elif match.lastgroup == "op":
            tokens.append(_Token(_Kind.OP, text, start))
        else:
            tokens.append(_Token(_Kind.PUNCT, text, start))
    tokens.append(_Token(_Kind.END, "", base + len(sql)))
    return tokens


# --------------------------------------------------------------------------
# LIKE -> regex translation
# --------------------------------------------------------------------------

_REGEX_META = set(".^$*+?()[]{}|\\")


def like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into our regex syntax (full match).
    ``%`` and ``_`` match any byte, a newline included — the engine's
    ``.`` does not."""
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append("[\\s\\S]*")
        elif ch == "_":
            out.append("[\\s\\S]")
        elif ch in _REGEX_META:
            out.append("\\" + ch)
        else:
            out.append(ch)
    out.append("$")
    return "".join(out)


# --------------------------------------------------------------------------
# Parse results
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedQuery:
    """A parsed SELECT: the FROM table's name and the relational-algebra
    DAG the statement parsed to.  The parser has no catalog, so nothing
    is resolved yet — :func:`bind_select` turns ``ir`` into the
    executable head query, join arms and client tail.

    ``placement`` carries the optional ``/*+ placement(...) */`` hint
    (``None`` when the statement leaves the decision to the caller).
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
    predicate: Predicate | None = None


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
# IR condition helpers (regex extraction, predicate conversion)
# --------------------------------------------------------------------------

def _has_textmatch(expr: Expr) -> bool:
    if isinstance(expr, TextMatch):
        return True
    if isinstance(expr, (BoolAnd, BoolOr)):
        return _has_textmatch(expr.left) or _has_textmatch(expr.right)
    if isinstance(expr, BoolNot):
        return _has_textmatch(expr.operand)
    return False


def _check_no_nested_textmatch(expr: Expr) -> None:
    """Enforce the pipeline's regex composition rule below the top level."""
    if isinstance(expr, BoolNot):
        if _has_textmatch(expr.operand):
            raise SqlSyntaxError("NOT cannot apply to LIKE/REGEXP")
        _check_no_nested_textmatch(expr.operand)
    elif isinstance(expr, BoolOr):
        if _has_textmatch(expr):
            raise SqlSyntaxError(
                "LIKE/REGEXP cannot appear under OR; the regex stage "
                "is AND-combined with the predicate")
    elif isinstance(expr, BoolAnd):
        _check_no_nested_textmatch(expr.left)
        _check_no_nested_textmatch(expr.right)


def split_regex(condition: Optional[Expr]
                ) -> tuple[Optional[Expr], Optional[TextMatch]]:
    """Split a WHERE condition into (comparison tree, LIKE/REGEXP term).

    Farview's regex operator is a separate pipeline stage: at most one
    text-match term is supported and it must be a top-level AND term
    (parentheses are transparent).
    """
    matches: list[TextMatch] = []
    rest: list[Expr] = []
    for term in conjuncts(condition):
        if isinstance(term, TextMatch):
            matches.append(term)
            continue
        _check_no_nested_textmatch(term)
        rest.append(term)
    if len(matches) > 1:
        raise SqlSyntaxError(
            "only one LIKE/REGEXP term is supported per query")
    return conjoin(rest), (matches[0] if matches else None)


def _textmatch_regex(tm: TextMatch) -> RegexFilter:
    pattern = tm.pattern if tm.regexp else like_to_regex(tm.pattern)
    return RegexFilter(tm.column.name, pattern)


def predicate_from_ir(expr: Expr) -> Predicate:
    """Convert a bound comparison tree into operator predicates.

    Column qualifiers are stripped (the predicate runs against one
    table's schema).
    """
    if isinstance(expr, Cmp):
        if not isinstance(expr.left, Col) or not isinstance(expr.right, Lit):
            raise SqlSyntaxError(
                "comparisons must be 'column op literal'")
        return Compare(expr.left.name, expr.op, expr.right.value)
    if isinstance(expr, BoolAnd):
        return And(predicate_from_ir(expr.left), predicate_from_ir(expr.right))
    if isinstance(expr, BoolOr):
        return Or(predicate_from_ir(expr.left), predicate_from_ir(expr.right))
    if isinstance(expr, BoolNot):
        return Not(predicate_from_ir(expr.operand))
    raise SqlSyntaxError(
        f"cannot convert {type(expr).__name__} to a predicate")


def _fold_predicates(terms: list[Predicate]) -> Predicate | None:
    if not terms:
        return None
    out = terms[0]
    for term in terms[1:]:
        out = And(out, term)
    return out


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

    def _expect_keyword(self, word: str) -> None:
        token = self._advance()
        if not token.is_keyword(word):
            raise self._fail(
                f"expected {word.upper()} at offset {token.pos}, got "
                f"{token.text!r}", token)

    def _expect_punct(self, text: str) -> None:
        token = self._advance()
        if token.kind is not _Kind.PUNCT or token.text != text:
            raise self._fail(
                f"expected {text!r} at offset {token.pos}, got "
                f"{token.text!r}", token)

    def _column_name(self) -> str:
        token = self._advance()
        if token.kind is not _Kind.IDENT:
            raise self._fail(
                f"expected a column name at offset {token.pos}, got "
                f"{token.text!r}", token)
        # Strip the table qualifier (single-table queries).
        return token.text.split(".")[-1]

    def _col_ref(self) -> Col:
        """A column reference keeping its table qualifier."""
        token = self._advance()
        if token.kind is not _Kind.IDENT:
            raise self._fail(
                f"expected a column name at offset {token.pos}, got "
                f"{token.text!r}", token)
        if "." in token.text:
            qualifier, name = token.text.split(".", 1)
            return Col(name, qualifier)
        return Col(token.text)

    # -- grammar ------------------------------------------------------------------
    def parse(self) -> ParsedQuery | ParsedWrite:
        token = self._peek()
        if (token.is_keyword("insert") or token.is_keyword("update")
                or token.is_keyword("delete")):
            if self.placement is not None:
                raise SqlSyntaxError(
                    "a /*+ placement(...) */ hint applies to reads only; "
                    "write statements always execute at the node")
            if token.is_keyword("insert"):
                return self._insert()
            if token.is_keyword("update"):
                return self._update()
            return self._delete()
        return self._select()

    def _table_name(self) -> str:
        token = self._advance()
        if token.kind is not _Kind.IDENT:
            raise self._fail(
                f"expected a table name at offset {token.pos}, got "
                f"{token.text!r}", token)
        return token.text.split(".")[-1]

    def _finish_statement(self) -> None:
        if self._peek().kind is _Kind.PUNCT and self._peek().text == ";":
            self._advance()
        if self._peek().kind is not _Kind.END:
            token = self._peek()
            raise self._fail(
                f"unexpected trailing input at offset {token.pos}: "
                f"{token.text!r}", token)

    def _literal(self) -> object:
        token = self._advance()
        negative = False
        if token.kind is _Kind.PUNCT and token.text == "-":
            negative = True
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
    def _write_where(self) -> Predicate | None:
        """Optional WHERE clause of a write statement (no regex stage)."""
        if not self._peek().is_keyword("where"):
            return None
        self._advance()
        condition = self._condition(self._where_comparison)
        if _has_textmatch(condition):
            raise SqlSyntaxError(
                "LIKE/REGEXP is not supported in write statements (the "
                "write verbs evaluate comparison predicates only)")
        return predicate_from_ir(_strip_cmp_qualifiers(condition))

    def _insert(self) -> ParsedWrite:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._table_name()
        self._expect_keyword("values")
        tuples: list[tuple[object, ...]] = []
        while True:
            self._expect_punct("(")
            values = [self._literal()]
            while (self._peek().kind is _Kind.PUNCT
                   and self._peek().text == ","):
                self._advance()
                values.append(self._literal())
            self._expect_punct(")")
            tuples.append(tuple(values))
            if self._peek().kind is _Kind.PUNCT and self._peek().text == ",":
                self._advance()
                continue
            break
        self._finish_statement()
        return ParsedWrite(kind="insert", table=table, values=tuple(tuples))

    def _update(self) -> ParsedWrite:
        self._expect_keyword("update")
        table = self._table_name()
        self._expect_keyword("set")
        assignments: list[tuple[str, object]] = []
        seen: set[str] = set()
        while True:
            column = self._column_name()
            token = self._advance()
            if token.kind is not _Kind.OP or token.text not in ("=", "=="):
                raise self._fail(
                    f"expected '=' at offset {token.pos}, got "
                    f"{token.text!r}", token)
            if column in seen:
                raise SqlSyntaxError(
                    f"column {column!r} assigned twice in SET")
            seen.add(column)
            assignments.append((column, self._literal()))
            if self._peek().kind is _Kind.PUNCT and self._peek().text == ",":
                self._advance()
                continue
            break
        predicate = self._write_where()
        self._finish_statement()
        return ParsedWrite(kind="update", table=table,
                           assignments=tuple(assignments),
                           predicate=predicate)

    def _delete(self) -> ParsedWrite:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._table_name()
        predicate = self._write_where()
        self._finish_statement()
        return ParsedWrite(kind="delete", table=table, predicate=predicate)

    # -- SELECT -> IR -----------------------------------------------------------
    def _select(self) -> ParsedQuery:
        self._expect_keyword("select")
        distinct = False
        if self._peek().is_keyword("distinct"):
            self._advance()
            distinct = True
        star, items = self._select_list()
        self._expect_keyword("from")
        table = self._table_name()
        joins = []
        while True:
            join = self._join_clause()
            if join is None:
                break
            joins.append(join)
        condition: Optional[Expr] = None
        if self._peek().is_keyword("where"):
            self._advance()
            condition = self._condition(self._where_comparison)
        group_cols: tuple[Col, ...] = ()
        if self._peek().is_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            group_cols = tuple(self._col_ref_list())
        having: Optional[Expr] = None
        if self._peek().is_keyword("having"):
            self._advance()
            having = self._condition(self._having_comparison)
        order: tuple[tuple[Col, bool], ...] = ()
        if self._peek().is_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            order = tuple(self._order_list())
        limit: Optional[int] = None
        if self._peek().is_keyword("limit"):
            self._advance()
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
        if self._peek().is_keyword("inner"):
            self._advance()
            self._expect_keyword("join")
        elif self._peek().is_keyword("join"):
            self._advance()
        else:
            return None
        build = self._table_name()
        self._expect_keyword("on")
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
            if token.kind is _Kind.PUNCT and token.text == "*":
                self._advance()
                if star or items:
                    raise self._fail(
                        "'*' cannot be mixed with other select items", token)
                star = True
            elif (token.kind is _Kind.KEYWORD
                    and token.text in SUPPORTED_FUNCS):
                if star:
                    raise self._fail(
                        "'*' cannot be mixed with other select items", token)
                items.append((self._agg_call(), None))
            else:
                if star:
                    raise self._fail(
                        "'*' cannot be mixed with other select items", token)
                expr = self._expression()
                alias: Optional[str] = None
                if self._peek().is_keyword("as"):
                    self._advance()
                    alias_token = self._advance()
                    if alias_token.kind is not _Kind.IDENT:
                        raise self._fail(
                            f"expected an alias at offset {alias_token.pos}",
                            alias_token)
                    alias = alias_token.text
                items.append((expr, alias))
            if self._peek().kind is _Kind.PUNCT and self._peek().text == ",":
                self._advance()
                continue
            return star, items

    def _agg_call(self) -> AggCall:
        func_token = self._advance()
        func = func_token.text
        self._expect_punct("(")
        arg: Optional[Expr] = None
        if func == "count" and self._peek().text == "*":
            self._advance()
        else:
            arg = self._expression()
        self._expect_punct(")")
        alias = ""
        if self._peek().is_keyword("as"):
            self._advance()
            alias_token = self._advance()
            if alias_token.kind is not _Kind.IDENT:
                raise self._fail(
                    f"expected an alias at offset {alias_token.pos}",
                    alias_token)
            alias = alias_token.text
        return AggCall(func, arg, alias)

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
        token = self._peek()
        if token.kind is _Kind.PUNCT and token.text == "(":
            self._advance()
            inner = self._expression()
            self._expect_punct(")")
            return inner
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
        return self._disjunction(comparison)

    def _disjunction(self, comparison) -> Expr:
        left = self._conjunction(comparison)
        while self._peek().is_keyword("or"):
            self._advance()
            left = BoolOr(left, self._conjunction(comparison))
        return left

    def _conjunction(self, comparison) -> Expr:
        left = self._cond_factor(comparison)
        while self._peek().is_keyword("and"):
            self._advance()
            left = BoolAnd(left, self._cond_factor(comparison))
        return left

    def _cond_factor(self, comparison) -> Expr:
        token = self._peek()
        if token.is_keyword("not"):
            self._advance()
            return BoolNot(self._cond_factor(comparison))
        if token.kind is _Kind.PUNCT and token.text == "(":
            self._advance()
            inner = self._disjunction(comparison)
            self._expect_punct(")")
            return inner
        return comparison()

    def _where_comparison(self) -> Expr:
        column = self._col_ref()
        token = self._advance()
        if token.is_keyword("like") or token.is_keyword("regexp"):
            pattern_token = self._advance()
            if pattern_token.kind is not _Kind.STRING:
                raise self._fail(
                    f"expected a string pattern at offset "
                    f"{pattern_token.pos}", pattern_token)
            return TextMatch(column, _unquote(pattern_token.text),
                             regexp=token.text == "regexp")
        if token.kind is not _Kind.OP:
            raise self._fail(
                f"expected a comparison operator at offset {token.pos}, got "
                f"{token.text!r}", token)
        op = {"=": "==", "<>": "!="}.get(token.text, token.text)
        return Cmp(op, column, Lit(self._literal()))

    def _having_comparison(self) -> Expr:
        token = self._peek()
        if token.kind is _Kind.KEYWORD and token.text in SUPPORTED_FUNCS:
            left: Expr = self._agg_call()
        else:
            left = self._col_ref()
        op_token = self._advance()
        if op_token.kind is not _Kind.OP:
            raise self._fail(
                f"expected a comparison operator at offset {op_token.pos}, "
                f"got {op_token.text!r}", op_token)
        op = {"=": "==", "<>": "!="}.get(op_token.text, op_token.text)
        return Cmp(op, left, Lit(self._literal()))

    # -- list helpers -----------------------------------------------------------
    def _col_ref_list(self) -> list[Col]:
        columns = [self._col_ref()]
        while self._peek().kind is _Kind.PUNCT and self._peek().text == ",":
            self._advance()
            columns.append(self._col_ref())
        return columns

    def _order_list(self) -> list[tuple[Col, bool]]:
        keys = [self._order_key()]
        while self._peek().kind is _Kind.PUNCT and self._peek().text == ",":
            self._advance()
            keys.append(self._order_key())
        return keys

    def _order_key(self) -> tuple[Col, bool]:
        col = self._col_ref()
        ascending = True
        if self._peek().is_keyword("asc"):
            self._advance()
        elif self._peek().is_keyword("desc"):
            self._advance()
            ascending = False
        return col, ascending


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")


def _strip_cmp_qualifiers(expr: Expr) -> Expr:
    """Drop table qualifiers off every column in a comparison tree (it
    is evaluated against one table's schema)."""
    if isinstance(expr, Cmp) and isinstance(expr.left, Col):
        return replace(expr, left=Col(expr.left.name))
    if isinstance(expr, BoolAnd):
        return BoolAnd(_strip_cmp_qualifiers(expr.left),
                       _strip_cmp_qualifiers(expr.right))
    if isinstance(expr, BoolOr):
        return BoolOr(_strip_cmp_qualifiers(expr.left),
                      _strip_cmp_qualifiers(expr.right))
    if isinstance(expr, BoolNot):
        return BoolNot(_strip_cmp_qualifiers(expr.operand))
    return expr


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
        if expr.arg is not None and not isinstance(expr.arg, Col):
            if not expr.alias:
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


@dataclass(frozen=True)
class SelectParts:
    """One SELECT's clauses, unstacked from the canonical IR shape."""

    scan: Scan
    joins: tuple[Join, ...]
    condition: Optional[Expr]
    aggregate: Optional[Aggregate]
    project: Project
    distinct: bool
    sort: Optional[Sort]
    limit: Optional[int]


def unstack_select(rel: Rel) -> SelectParts:
    """Walk the canonical Scan->...->Limit stacking back into clauses."""
    limit: Optional[int] = None
    if isinstance(rel, Limit):
        limit, rel = rel.count, rel.child
    sort: Optional[Sort] = None
    if isinstance(rel, Sort):
        sort, rel = rel, rel.child
    distinct = False
    if isinstance(rel, Distinct):
        distinct, rel = True, rel.child
    if not isinstance(rel, Project):
        raise QueryError(
            f"non-canonical IR: expected Project, got {type(rel).__name__}")
    project, rel = rel, rel.child
    aggregate: Optional[Aggregate] = None
    if isinstance(rel, Aggregate):
        aggregate, rel = rel, rel.child
    condition: Optional[Expr] = None
    if isinstance(rel, Filter):
        condition, rel = rel.condition, rel.child
    joins: list[Join] = []
    while isinstance(rel, Join):
        joins.append(rel)
        rel = rel.child
    joins.reverse()
    if not isinstance(rel, Scan):
        raise QueryError(
            f"non-canonical IR: expected Scan, got {type(rel).__name__}")
    return SelectParts(scan=rel, joins=tuple(joins), condition=condition,
                       aggregate=aggregate, project=project,
                       distinct=distinct, sort=sort, limit=limit)


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
# Bound client-side operators (the lowered DAG suffix)
# --------------------------------------------------------------------------
# ``kernel`` names the kernel of :func:`repro.core.planner.run_client_kernel`
# that runs the node, reading its parameters off the node's fields.

@dataclass(frozen=True)
class BoundEval:
    """Expression projection: output columns are ``items`` exactly."""

    items: tuple[tuple[Expr, str], ...]
    schema: Schema
    kernel = "eval"


@dataclass(frozen=True)
class BoundFilter:
    """Row filter over the current intermediate (WHERE residue, HAVING)."""

    predicate: Predicate
    kernel = "selection"


@dataclass(frozen=True)
class BoundAggregate:
    """Client-side (grouped) aggregation."""

    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    kernel = "aggregate"


@dataclass(frozen=True)
class BoundDistinct:
    """Client-side dedup over every output column."""

    distinct_columns = None
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


@dataclass
class BoundSelect:
    """A fully resolved SELECT, ready to execute.

    ``query`` is the head (stage-0) offloadable Query against ``base``;
    ``arms`` chain client-side joins onto its output; ``ops`` are the
    remaining client kernels in execution order; ``schema`` is the final
    output schema.
    """

    base: object                        # catalog handle of the FROM table
    table: str
    query: Query
    arms: tuple[BoundArm, ...]
    ops: tuple[object, ...]
    schema: Schema


def _ordered_add(seq: list, value) -> None:
    if value not in seq:
        seq.append(value)


def bind_select(parsed: ParsedQuery, catalog) -> BoundSelect:
    """Name-resolve and type-check a SELECT against the catalog,
    lowering the IR DAG onto the engine (head Query + join arms + client
    kernels).  See the module docstring for the placement rationale."""
    parts = unstack_select(parsed.ir)
    base_name = parts.scan.table
    from_tables = [base_name] + [j.table for j in parts.joins]
    seen: set[str] = set()
    for name in from_tables:
        if name in seen:
            raise SqlSyntaxError(
                f"table {name!r} appears twice in FROM; self-joins are "
                f"not supported")
        seen.add(name)
    handles = {name: catalog.lookup(name) for name in from_tables}
    schemas = {name: handles[name].schema for name in from_tables}

    def owner(col: Col) -> str:
        if col.qualifier is not None:
            if col.qualifier not in handles:
                raise SqlSyntaxError(
                    f"unknown table qualifier {col.qualifier!r}; the "
                    f"query reads {', '.join(repr(t) for t in from_tables)}")
            if col.name not in schemas[col.qualifier].names:
                raise SqlSyntaxError(
                    f"unknown column {col.qualifier}.{col.name}")
            return col.qualifier
        for name in from_tables:
            if col.name in schemas[name].names:
                return name
        raise SqlSyntaxError(f"unknown column {col.name!r}")

    # -- join resolution (pass A): build/probe sides per join ---------------
    joined: list[str] = [base_name]
    join_info: list[dict] = []
    for join in parts.joins:
        build_name = join.table
        lo, ro = owner(join.left), owner(join.right)
        if lo == build_name and ro in joined:
            build_col, probe_col = join.left, join.right
        elif ro == build_name and lo in joined:
            build_col, probe_col = join.right, join.left
        else:
            raise SqlSyntaxError(
                f"join ON must relate one column of {build_name!r} to one "
                f"column of an already-joined table")
        join_info.append({"table": build_name,
                          "build_key": build_col.name,
                          "probe_ref": (owner(probe_col), probe_col.name)})
        joined.append(build_name)

    def canonical(table: str, name: str) -> tuple[str, str]:
        """Map a build key onto the probe column it equals after the
        inner join (chained through multi-way joins)."""
        for info in join_info:
            if info["table"] == table and info["build_key"] == name:
                return canonical(*info["probe_ref"])
        return table, name

    def canonical_col(col: Col) -> tuple[str, str]:
        return canonical(owner(col), col.name)

    # -- needed-column analysis (pass B) ------------------------------------
    needed: dict[str, list[str]] = {name: [] for name in from_tables}

    def require(col: Col) -> None:
        table, name = canonical_col(col)
        _ordered_add(needed[table], name)

    if parts.project.star:
        for name in schemas[base_name].names:
            _ordered_add(needed[base_name], name)
        for info in join_info:
            for name in schemas[info["table"]].names:
                if name != info["build_key"]:
                    _ordered_add(needed[info["table"]], name)
    else:
        for expr, _alias in parts.project.items:
            for col in expr_columns(expr):
                require(col)
    if parts.aggregate is not None:
        for col in parts.aggregate.group_by:
            require(col)
    for info in join_info:
        table, name = canonical(*info["probe_ref"])
        _ordered_add(needed[table], name)

    # -- WHERE pushdown: one table per conjunct ------------------------------
    residual, tm = split_regex(parts.condition)
    conj_by_table: dict[str, list[Predicate]] = {n: [] for n in from_tables}
    for term in conjuncts(residual):
        cols = expr_columns(term)
        owners = {owner(col) for col in cols}
        if len(owners) != 1:
            raise SqlSyntaxError(
                "WHERE comparisons must reference exactly one table")
        table = owners.pop()
        conj_by_table[table].append(
            predicate_from_ir(_strip_cmp_qualifiers(term)))
    regex_table: str | None = None
    regex_filter: RegexFilter | None = None
    if tm is not None:
        regex_table = owner(tm.column)
        regex_filter = _textmatch_regex(tm)

    # -- stage-0 eligibility -------------------------------------------------
    # The first join rides the head query's on-chip hash (an offloadable
    # JoinSpec) when its build table carries no pushed-down
    # predicate; any filtered build — and every later join — becomes a
    # client arm whose build read is its own independently placed Query.
    # A later unfiltered join whose build is hash-co-located with the
    # base (both sides partitioned on the join key, matching shard
    # counts) is promoted to stage 0 instead, so the scatter layer can
    # run it shard-local with zero build movement.  Promotion is skipped
    # under SELECT * — reordering joins permutes the star column order.
    def _stage0_ok(idx: int, info: dict) -> bool:
        table = info["table"]
        if bool(conj_by_table[table]) or regex_table == table:
            return False
        probe_tbl, probe_nm = canonical(*info["probe_ref"])
        if probe_tbl != base_name:
            return False
        if idx == 0:
            return True
        return (not parts.project.star
                and colocated_compatible(handles[base_name], handles[table],
                                         probe_nm, info["build_key"]))

    def _colocated(info: dict) -> bool:
        return colocated_compatible(handles[base_name],
                                    handles[info["table"]],
                                    canonical(*info["probe_ref"])[1],
                                    info["build_key"])

    stage0_idx: int | None = None
    for idx, info in enumerate(join_info):
        if _stage0_ok(idx, info):
            stage0_idx = idx
            if _colocated(info):
                break  # co-located beats the first-join (broadcast) pick
    stage0_join: dict | None = None
    arm_infos: list[dict] = []
    for idx, info in enumerate(join_info):
        if idx == stage0_idx:
            stage0_join = info
        else:
            arm_infos.append(info)

    agg = parts.aggregate
    stage0_agg = (agg is not None and not arm_infos
                  and all(a.arg is None or isinstance(a.arg, Col)
                          for a in agg.aggs))
    # Nothing left for the client: the head's own projection / DISTINCT
    # stages then emit the select list (in select order) and the tail
    # stays empty.  Never under a client ORDER BY / LIMIT — the gather
    # order of a node-side DISTINCT would leak into sort ties.
    if agg is not None:
        head_emits_select = stage0_agg and agg.having is None
    else:
        head_emits_select = all(isinstance(expr, Col) and alias is None
                                for expr, alias in parts.project.items)
    tail_empty = (head_emits_select and not arm_infos
                  and parts.sort is None and parts.limit is None)

    def payload_for(info: dict) -> tuple[str, ...]:
        table, key = info["table"], info["build_key"]
        schema = schemas[table]
        payload = [n for n in needed[table] if n != key]
        if not tail_empty:
            # The client tail re-orders anyway; schema order keeps the
            # stage's shipped layout independent of the select list.
            payload = [n for n in schema.names if n in payload]
        if not payload:
            extra = [n for n in schema.names if n != key]
            if not extra:
                raise SqlSyntaxError(
                    f"joined table {table!r} has no columns besides the "
                    f"key {key!r}; nothing to join in")
            payload.append(extra[0])
        return tuple(payload)

    # -- intermediate schema + current-name tracking -------------------------
    colmap: dict[str, dict[str, str]] = {
        base_name: {n: n for n in schemas[base_name].names}}

    def current_name(col: Col) -> str:
        table, name = canonical_col(col)
        return colmap[table][name]

    base_schema = schemas[base_name]
    spec0: JoinSpec | None = None
    if stage0_join is not None:
        payload0 = payload_for(stage0_join)
        probe_tbl, probe_nm = canonical(*stage0_join["probe_ref"])
        spec0 = JoinSpec(handles[stage0_join["table"]],
                         stage0_join["build_key"],
                         colmap[probe_tbl][probe_nm], payload0)
        colmap[stage0_join["table"]] = {
            p: (f"build_{p}" if p in base_schema.names else p)
            for p in payload0}
        inter_schema = join_output_schema(base_schema,
                                          schemas[stage0_join["table"]],
                                          list(payload0))
    else:
        inter_schema = base_schema

    # -- stage-0 (head) query -------------------------------------------------
    predicate0 = _fold_predicates(conj_by_table[base_name])
    regex0 = regex_filter if regex_table == base_name else None
    projection0: tuple[str, ...] | None = None
    if stage0_join is None and not stage0_agg:
        cols0 = [n for n in base_schema.names if n in needed[base_name]]
        if cols0 and len(cols0) < len(base_schema.names):
            projection0 = tuple(cols0)
            inter_schema = base_schema.project(cols0)

    # -- join arms ------------------------------------------------------------
    arms: list[BoundArm] = []
    for info in arm_infos:
        table = info["table"]
        schema = schemas[table]
        payload = payload_for(info)
        predicate = _fold_predicates(conj_by_table[table])
        regex = regex_filter if regex_table == table else None
        query: Query | None = None
        if predicate is not None or regex is not None:
            proj = tuple(n for n in schema.names
                         if n == info["build_key"] or n in payload)
            query = Query(projection=proj, predicate=predicate,
                          regex=regex, label="sql")
            build_schema = schema.project(list(proj))
        else:
            build_schema = schema
        probe_tbl, probe_nm = canonical(*info["probe_ref"])
        probe_key = colmap[probe_tbl][probe_nm]
        colmap[table] = {p: (f"build_{p}" if p in inter_schema.names else p)
                         for p in payload}
        arms.append(BoundArm(build=handles[table], table=table, query=query,
                             build_key=info["build_key"],
                             probe_key=probe_key, payload=payload))
        inter_schema = join_output_schema(inter_schema, build_schema,
                                          list(payload))

    # -- aggregation ----------------------------------------------------------
    ops: list[object] = []
    specs: list[AggregateSpec] = []
    group_names: list[str] = []
    if agg is not None:
        group_names = [current_name(col) for col in agg.group_by]
        if stage0_agg:
            for a in agg.aggs:
                column = "*" if a.arg is None else current_name(a.arg)
                specs.append(AggregateSpec(a.func, column, a.alias))
            if group_names:
                inter_schema = group_output_schema(inter_schema, group_names,
                                                   specs)
            else:
                inter_schema = aggregate_output_schema(inter_schema, specs)
        else:
            derived: list[tuple[Expr, str]] = []
            eval_needed = False
            for i, a in enumerate(agg.aggs):
                if a.arg is None:
                    specs.append(AggregateSpec(a.func, "*", a.alias))
                elif isinstance(a.arg, Col):
                    specs.append(AggregateSpec(a.func, current_name(a.arg),
                                               a.alias))
                else:
                    eval_needed = True
                    name = f"_agg{i}"
                    derived.append((_rebind(a.arg, current_name), name))
                    specs.append(AggregateSpec(a.func, name, a.alias))
            if eval_needed:
                items: list[tuple[Expr, str]] = []
                for name in group_names:
                    _ordered_add(items, (Col(name), name))
                for spec in specs:
                    if (spec.column not in ("*",)
                            and not any(n == spec.column
                                        for _e, n in derived)):
                        _ordered_add(items, (Col(spec.column), spec.column))
                items.extend(derived)
                eval_schema = _eval_schema(items, inter_schema)
                ops.append(BoundEval(tuple(items), eval_schema))
                inter_schema = eval_schema
            ops.append(BoundAggregate(tuple(group_names), tuple(specs)))
            if group_names:
                inter_schema = group_output_schema(inter_schema, group_names,
                                                   specs)
            else:
                inter_schema = aggregate_output_schema(inter_schema, specs)
        if agg.having is not None:
            having = _bind_having(agg.having, agg, specs, group_names,
                                  current_name)
            predicate = predicate_from_ir(having)
            predicate.validate(inter_schema)
            ops.append(BoundFilter(predicate))
    elif not parts.project.star:
        items = []
        for expr, alias in parts.project.items:
            if isinstance(expr, Col):
                out = alias or current_name(expr)
            else:
                if alias is None:
                    raise SqlSyntaxError(
                        "expression select items need an AS alias")
                out = alias
            items.append((_rebind(expr, current_name), out))
        eval_schema = _eval_schema(items, inter_schema)
        if tail_empty:
            projection0 = tuple(name for _expr, name in items)
        else:
            ops.append(BoundEval(tuple(items), eval_schema))
        inter_schema = eval_schema

    if parts.distinct and not tail_empty:
        ops.append(BoundDistinct())
    if parts.sort is not None:
        keys: list[tuple[str, bool]] = []
        for col, ascending in parts.sort.keys:
            name = _bind_sort_key(col, inter_schema, from_tables, handles,
                                  current_name)
            keys.append((name, ascending))
        ops.append(BoundSort(tuple(keys)))
    if parts.limit is not None:
        ops.append(BoundLimit(parts.limit))

    head = Query(
        projection=projection0,
        predicate=predicate0,
        regex=regex0,
        join=spec0,
        distinct=parts.distinct and tail_empty,
        group_by=tuple(group_names) if (stage0_agg and group_names) else None,
        aggregates=tuple(specs) if stage0_agg else (),
        label="sql")
    return BoundSelect(base=handles[base_name], table=base_name, query=head,
                       arms=tuple(arms), ops=tuple(ops), schema=inter_schema)


def _rebind(expr: Expr, current_name) -> Expr:
    """Rewrite every column reference to its bound intermediate name."""
    if isinstance(expr, Col):
        return Col(current_name(expr))
    if isinstance(expr, Arith):
        return Arith(expr.op, _rebind(expr.left, current_name),
                     _rebind(expr.right, current_name))
    if isinstance(expr, Lit):
        return expr
    raise SqlSyntaxError(
        f"cannot use {type(expr).__name__} in a value expression")


def _eval_schema(items: list[tuple[Expr, str]], schema: Schema) -> Schema:
    """Output schema of an expression projection (type-checks arithmetic)."""
    columns: list[Column] = []
    for expr, name in items:
        if isinstance(expr, Col):
            source = schema.column(expr.name)
            columns.append(Column(name, source.kind, source.width))
            continue
        dtype = expr_dtype(expr, schema)
        kind = "float64" if dtype.kind == "f" else "int64"
        columns.append(Column(name, kind, 8))
    return Schema(columns)


def _bind_having(having: Expr, agg: Aggregate, specs, group_names,
                 current_name) -> Expr:
    """Rewrite HAVING aggregate calls onto their output columns."""
    def key_of(call: AggCall):
        arg = call.arg
        if isinstance(arg, Col):
            arg = Col(current_name(arg))
        elif arg is not None:
            arg = _rebind(arg, current_name)
        return (call.func, arg)

    by_key = {}
    for a, spec in zip(agg.aggs, specs):
        by_key[key_of(a)] = spec.alias

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, AggCall):
            alias = by_key.get(key_of(expr))
            if alias is None:
                raise SqlSyntaxError(
                    "HAVING aggregates must also appear in the select "
                    "list")
            return Col(alias)
        if isinstance(expr, Col):
            name = current_name(expr)
            if name not in group_names:
                raise SqlSyntaxError(
                    f"HAVING column {expr.name!r} must be a GROUP BY "
                    f"column")
            return Col(name)
        if isinstance(expr, Cmp):
            return Cmp(expr.op, rewrite(expr.left), expr.right)
        if isinstance(expr, BoolAnd):
            return BoolAnd(rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, BoolOr):
            return BoolOr(rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, BoolNot):
            return BoolNot(rewrite(expr.operand))
        return expr

    return rewrite(having)


def _bind_sort_key(col: Col, schema: Schema, from_tables, handles,
                   current_name) -> str:
    """ORDER BY keys bind against the output schema (select aliases or
    selected column names)."""
    if col.qualifier is None and col.name in schema.names:
        return col.name
    try:
        name = current_name(col)
    except (SqlSyntaxError, KeyError):
        name = None
    if name is not None and name in schema.names:
        return name
    raise SqlSyntaxError(
        f"ORDER BY column {col.name!r} must appear in the select list")
