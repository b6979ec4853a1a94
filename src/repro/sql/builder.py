"""Fluent programmatic query construction.

The workload generators build queries with :class:`QueryBuilder` rather than
going through SQL text — it is faster, type-checked and keeps the templates
readable:

>>> from repro.sql.builder import QueryBuilder
>>> query = (
...     QueryBuilder("q3")
...     .table("customer", "c")
...     .table("orders", "o")
...     .table("lineitem", "l")
...     .filter("c", "c_mktsegment", "=", "BUILDING")
...     .join("c", "c_custkey", "o", "o_custkey")
...     .join("o", "o_orderkey", "l", "l_orderkey")
...     .aggregate("sum", "l", "l_extendedprice", "revenue")
...     .build()
... )
>>> len(query.join_predicates)
2
"""

from __future__ import annotations

from typing import List, Optional

from repro.sql.ast import (
    Aggregate,
    ColumnRef,
    JoinPredicate,
    LocalPredicate,
    Parameter,
    Query,
    TableRef,
)


class QueryBuilder:
    """Incrementally assemble a :class:`repro.sql.ast.Query`."""

    def __init__(self, name: str = "query") -> None:
        self._name = name
        self._tables: List[TableRef] = []
        self._local: List[LocalPredicate] = []
        self._joins: List[JoinPredicate] = []
        self._projections: List[ColumnRef] = []
        self._aggregates: List[Aggregate] = []
        self._group_by: List[ColumnRef] = []
        self._positional_parameters = 0

    def table(self, table: str, alias: Optional[str] = None) -> "QueryBuilder":
        """Add a relation to the FROM clause."""
        self._tables.append(TableRef.of(table, alias))
        return self

    def filter(self, alias: str, column: str, op: str, value: object) -> "QueryBuilder":
        """Add a local predicate ``alias.column op value``."""
        self._local.append(LocalPredicate(alias=alias, column=column, op=op, value=value))
        return self

    def between(self, alias: str, column: str, low: object, high: object) -> "QueryBuilder":
        """Add an inclusive range filter as two local predicates."""
        self.filter(alias, column, ">=", low)
        self.filter(alias, column, "<=", high)
        return self

    def param(self, name: Optional[str] = None) -> Parameter:
        """A parameter placeholder to pass as a filter value.

        With ``name`` the parameter is named (all same-name occurrences share
        one binding); without, a fresh positional parameter is allocated in
        call order, matching the ``?`` numbering of the SQL parser.
        """
        if name is not None:
            return Parameter.named(name)
        parameter = Parameter.positional(self._positional_parameters)
        self._positional_parameters += 1
        return parameter

    def filter_param(
        self, alias: str, column: str, op: str, name: Optional[str] = None
    ) -> "QueryBuilder":
        """Add a parameterized local predicate ``alias.column op <parameter>``."""
        return self.filter(alias, column, op, self.param(name))

    def join(
        self, left_alias: str, left_column: str, right_alias: str, right_column: str
    ) -> "QueryBuilder":
        """Add an equi-join predicate between two relations."""
        self._joins.append(
            JoinPredicate(
                left_alias=left_alias,
                left_column=left_column,
                right_alias=right_alias,
                right_column=right_column,
            )
        )
        return self

    def select(self, alias: str, column: str) -> "QueryBuilder":
        """Add a plain projection column."""
        self._projections.append(ColumnRef(alias=alias, column=column))
        return self

    def aggregate(
        self,
        func: str,
        alias: Optional[str] = None,
        column: Optional[str] = None,
        output_name: Optional[str] = None,
    ) -> "QueryBuilder":
        """Add an aggregate output column (``count`` may omit the column)."""
        if output_name is None:
            if column is None:
                output_name = func
            else:
                output_name = f"{func}_{column}"
        self._aggregates.append(
            Aggregate(func=func, alias=alias, column=column, output_name=output_name)
        )
        return self

    def group_by(self, alias: str, column: str) -> "QueryBuilder":
        """Add a grouping column (also projected in the output)."""
        self._group_by.append(ColumnRef(alias=alias, column=column))
        return self

    def build(self) -> Query:
        """Finalize and validate the query."""
        query = Query(
            tables=list(self._tables),
            local_predicates=list(self._local),
            join_predicates=list(self._joins),
            projections=list(self._projections),
            aggregates=list(self._aggregates),
            group_by=list(self._group_by),
            name=self._name,
        )
        query.validate()
        return query
