"""A small SQL parser for the query class the engine supports.

The grammar (case-insensitive keywords)::

    query      := SELECT select_list FROM table_list [WHERE conjunction]
                  [GROUP BY column_list]
    select_list:= '*' | item (',' item)*
    item       := column | agg '(' (column | '*') ')' [AS name]
    table_list := table [AS? alias] (',' table [AS? alias])*
    conjunction:= condition (AND condition)*
    condition  := column op (value | column)
                | column IN '(' value (',' value)* ')'
                | column BETWEEN value AND value
    column     := [alias '.'] name
    value      := literal | '?' | ':' name
    op         := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='

A condition comparing two columns of different relations becomes a join
predicate; a condition against a literal becomes a local predicate.  This is
exactly the "selection + equi-join conjunction" shape of Equation (2)/(4) in
the paper, plus the aggregates needed for the TPC-H-style templates.

``?`` and ``:name`` placeholders parse to :class:`repro.sql.ast.Parameter`
markers wherever a literal may stand — the prepared-statement templates the
query service (:mod:`repro.service`) binds per execution.  Positional ``?``
parameters are numbered left to right; every occurrence of one ``:name``
shares a single binding.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.sql.ast import (
    Aggregate,
    ColumnRef,
    JoinPredicate,
    LocalPredicate,
    Parameter,
    Query,
    TableRef,
)

_TOKEN_PATTERN = re.compile(
    r"""
    \s*(
        <=|>=|<>|!=|=|<|>         # operators
      | \(|\)|,|\*|\.|\?          # punctuation / positional placeholder
      | :[A-Za-z_][A-Za-z_0-9]*   # named placeholder
      | '(?:[^']*)'               # single-quoted string
      | -?\d+\.\d+                # float literal
      | -?\d+                     # int literal
      | [A-Za-z_][A-Za-z_0-9]*    # identifier / keyword
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "and", "group", "by", "as", "in", "between"}
_AGG_FUNCS = {"count", "sum", "avg", "min", "max"}


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_PATTERN.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"unexpected input near {remainder[:20]!r}")
        token = match.group(1)
        tokens.append(token)
        pos = match.end()
    return tokens


class _TokenStream:
    """Cursor over the token list with small lookahead helpers."""

    def __init__(self, tokens: List[str]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Optional[str]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of query")
        self._pos += 1
        return token

    def expect(self, expected: str) -> str:
        token = self.next()
        if token.lower() != expected.lower():
            raise ParseError(f"expected {expected!r}, found {token!r}")
        return token

    def accept(self, expected: str) -> bool:
        token = self.peek()
        if token is not None and token.lower() == expected.lower():
            self._pos += 1
            return True
        return False

    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)


class _ParameterCounter:
    """Assigns positional indexes to ``?`` placeholders, left to right."""

    def __init__(self) -> None:
        self.next_index = 0

    def positional(self) -> Parameter:
        parameter = Parameter.positional(self.next_index)
        self.next_index += 1
        return parameter


def _parse_literal(token: str, parameters: Optional[_ParameterCounter] = None) -> object:
    if token == "?":
        if parameters is None:
            raise ParseError("positional parameter '?' not allowed here")
        return parameters.positional()
    if token.startswith(":") and len(token) > 1:
        return Parameter.named(token[1:])
    if token.startswith("'") and token.endswith("'"):
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"invalid literal {token!r}") from exc


def _is_identifier(token: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token)) and token.lower() not in _KEYWORDS


def _parse_column(stream: _TokenStream) -> Tuple[Optional[str], str]:
    """Parse ``[alias.]name`` and return ``(alias_or_None, name)``."""
    first = stream.next()
    if not _is_identifier(first):
        raise ParseError(f"expected column name, found {first!r}")
    if stream.accept("."):
        second = stream.next()
        if not _is_identifier(second):
            raise ParseError(f"expected column name after '.', found {second!r}")
        return first, second
    return None, first


def parse_query(text: str, name: str = "query") -> Query:
    """Parse SQL ``text`` into a :class:`repro.sql.ast.Query`.

    Column references without an explicit alias are resolved after the FROM
    clause is known; they are only accepted when unambiguous (exactly one
    relation — otherwise an alias is required, as in real SQL when the column
    exists in several relations; the parser is conservative and always
    requires the alias for multi-relation queries).
    """
    tokens = _tokenize(text)
    stream = _TokenStream(tokens)
    stream.expect("select")

    # --- SELECT list (parsed first, resolved after FROM) ----------------- #
    select_items: List[Tuple[str, object]] = []
    if stream.accept("*"):
        pass
    else:
        while True:
            token = stream.peek()
            if token is not None and token.lower() in _AGG_FUNCS:
                func = stream.next().lower()
                stream.expect("(")
                if stream.accept("*"):
                    alias, column = None, None
                else:
                    alias, column = _parse_column(stream)
                stream.expect(")")
                output_name = None
                if stream.accept("as"):
                    output_name = stream.next()
                select_items.append(("agg", (func, alias, column, output_name)))
            else:
                alias, column = _parse_column(stream)
                select_items.append(("col", (alias, column)))
            if not stream.accept(","):
                break

    # --- FROM clause ------------------------------------------------------ #
    stream.expect("from")
    tables: List[TableRef] = []
    while True:
        table_name = stream.next()
        if not _is_identifier(table_name):
            raise ParseError(f"expected table name, found {table_name!r}")
        alias = table_name
        if stream.accept("as"):
            alias = stream.next()
        elif stream.peek() is not None and _is_identifier(stream.peek()):
            alias = stream.next()
        tables.append(TableRef(table=table_name, alias=alias))
        if not stream.accept(","):
            break

    aliases = [ref.alias for ref in tables]

    def resolve_alias(alias: Optional[str], column: str) -> str:
        if alias is not None:
            return alias
        if len(aliases) == 1:
            return aliases[0]
        raise ParseError(
            f"column {column!r} must be qualified with an alias in a multi-table query"
        )

    # --- WHERE clause ------------------------------------------------------ #
    local_predicates: List[LocalPredicate] = []
    join_predicates: List[JoinPredicate] = []
    parameter_counter = _ParameterCounter()
    if stream.accept("where"):
        while True:
            left_alias, left_column = _parse_column(stream)
            left_alias = resolve_alias(left_alias, left_column)
            op = stream.next()
            if op == "!=":
                op = "<>"
            if op.lower() == "in":
                stream.expect("(")
                values = []
                while True:
                    values.append(_parse_literal(stream.next(), parameter_counter))
                    if not stream.accept(","):
                        break
                stream.expect(")")
                local_predicates.append(
                    LocalPredicate(
                        alias=left_alias, column=left_column, op="in", value=tuple(values)
                    )
                )
            elif op.lower() == "between":
                low = _parse_literal(stream.next(), parameter_counter)
                stream.expect("and")
                high = _parse_literal(stream.next(), parameter_counter)
                local_predicates.append(
                    LocalPredicate(
                        alias=left_alias, column=left_column, op="between", value=(low, high)
                    )
                )
            elif op not in ("=", "<>", "<", "<=", ">", ">="):
                raise ParseError(f"unsupported operator {op!r} in WHERE clause")
            else:
                right_token = stream.peek()
                if right_token is None:
                    raise ParseError("unexpected end of query in WHERE clause")
                if _is_identifier(right_token):
                    right_alias, right_column = _parse_column(stream)
                    right_alias = resolve_alias(right_alias, right_column)
                    if op != "=":
                        raise ParseError("only equality joins between columns are supported")
                    join_predicates.append(
                        JoinPredicate(
                            left_alias=left_alias,
                            left_column=left_column,
                            right_alias=right_alias,
                            right_column=right_column,
                        )
                    )
                else:
                    value = _parse_literal(stream.next(), parameter_counter)
                    local_predicates.append(
                        LocalPredicate(alias=left_alias, column=left_column, op=op, value=value)
                    )
            if not stream.accept("and"):
                break

    # --- GROUP BY clause ---------------------------------------------------- #
    group_by: List[ColumnRef] = []
    if stream.accept("group"):
        stream.expect("by")
        while True:
            alias, column = _parse_column(stream)
            alias = resolve_alias(alias, column)
            group_by.append(ColumnRef(alias=alias, column=column))
            if not stream.accept(","):
                break

    if not stream.exhausted():
        raise ParseError(f"unexpected trailing token {stream.peek()!r}")

    # --- Resolve SELECT list ------------------------------------------------ #
    projections: List[ColumnRef] = []
    aggregates: List[Aggregate] = []
    for kind, payload in select_items:
        if kind == "col":
            alias, column = payload
            projections.append(ColumnRef(alias=resolve_alias(alias, column), column=column))
        else:
            func, alias, column, output_name = payload
            if column is not None:
                alias = resolve_alias(alias, column)
            if output_name is None:
                output_name = func if column is None else f"{func}_{column}"
            aggregates.append(
                Aggregate(func=func, alias=alias, column=column, output_name=output_name)
            )

    query = Query(
        tables=tables,
        local_predicates=local_predicates,
        join_predicates=join_predicates,
        projections=projections,
        aggregates=aggregates,
        group_by=group_by,
        name=name,
    )
    query.validate()
    return query
