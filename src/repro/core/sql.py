"""SQL front end for the Farview client (§4.2's "query compiler").

This module is the stable import surface; the implementation lives in
the compiler layers underneath:

* :mod:`repro.core.ir` — the typed relational-algebra DAG (Scan, Join,
  Filter, Aggregate/Having, Project-with-expressions, Distinct, Sort,
  Limit) plus scalar expression nodes and SQL rendering.
* :mod:`repro.core.compile` — tokenizer, recursive-descent parser
  producing the IR, and :func:`bind_select`, the one name-resolution /
  type-check pass that lowers every SELECT onto the engine.

Grammar (see ``docs/SQL.md`` for the full reference)::

    statement := query | insert | update | delete
    query     := [hint] SELECT [DISTINCT] select_list FROM ident
                 join_clause* [WHERE disjunction]
                 [GROUP BY column_list] [HAVING having_disjunction]
                 [ORDER BY order_list] [LIMIT integer] [';']
    hint      := '/*+' 'placement' '(' ('auto'|'offload'|'ship') ')' '*/'
    select_list := '*' | select_item (',' select_item)*
    select_item := aggregate | expression [AS ident]
    aggregate := (COUNT '(' '*' ')' | func '(' expression ')') [AS ident]
              where func := COUNT | SUM | MIN | MAX | AVG
    join_clause := [INNER] JOIN ident ON column '=' column
    expression := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := ['-'] number | string | column | '(' expression ')'
    disjunction := conjunction (OR conjunction)*
    conjunction := cond_factor (AND cond_factor)*
    cond_factor := [NOT] ( '(' disjunction ')' | comparison )
    comparison := column op literal
               | column LIKE string | column REGEXP string
    order_list := column [ASC|DESC] (',' column [ASC|DESC])*
    op        := '=' | '==' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    insert    := INSERT INTO ident VALUES tuple (',' tuple)* [';']
    update    := UPDATE ident SET ident '=' literal
                 (',' ident '=' literal)* [where] [';']
    delete    := DELETE FROM ident [where] [';']

Every SELECT parses to a :class:`ParsedQuery` (table name, IR DAG,
placement hint) and is bound against the catalog into one offloadable
head query, client-side join arms and a tail of deterministic client
kernels.  A statement the node's operator chain covers whole (at most
one unfiltered join, no ORDER BY / LIMIT / HAVING, no expressions or
aliases) binds with an empty tail and runs as its head query alone.
"""

from .compile import (ParsedQuery, ParsedWrite, SqlSyntaxError, bind_select,
                      like_to_regex, parse_sql)

__all__ = [
    "ParsedQuery",
    "ParsedWrite",
    "SqlSyntaxError",
    "bind_select",
    "like_to_regex",
    "parse_sql",
]
