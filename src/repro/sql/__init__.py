"""SQL front end: query AST, a small parser and a programmatic builder."""

from __future__ import annotations

from repro.sql.ast import (
    Aggregate,
    Bindings,
    ColumnRef,
    JoinPredicate,
    LocalPredicate,
    Parameter,
    Query,
    TableRef,
)
from repro.sql.builder import QueryBuilder
from repro.sql.fingerprint import (
    binding_key,
    normalize_value,
    template_fingerprint,
)
from repro.sql.parser import parse_query

__all__ = [
    "Aggregate",
    "Bindings",
    "ColumnRef",
    "JoinPredicate",
    "LocalPredicate",
    "Parameter",
    "Query",
    "QueryBuilder",
    "TableRef",
    "binding_key",
    "normalize_value",
    "parse_query",
    "template_fingerprint",
]
