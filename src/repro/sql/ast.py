"""Query abstract syntax tree.

The engine supports the class of queries the paper works with: conjunctive
select-project-join queries over base tables, optionally followed by a
grouped aggregation.  A :class:`Query` holds:

* table references (with aliases, so self-joins work);
* local predicates — comparisons between a column of one table and a
  constant (the ``A_k = c_k`` selections of the OTT queries, the date-range
  and category filters of TPC-H/TPC-DS);
* join predicates — equality between columns of two different tables
  (``B_1 = B_2``-style equi-joins);
* an optional projection / aggregation block.

The join graph (relations as nodes, join predicates as edges) is the
query's aliases and join predicates; the optimizer's dynamic-programming
search reads them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Union

from repro.errors import ParseError

#: Comparison operators supported by local predicates.  ``"in"`` carries a
#: sequence of candidate values, ``"between"`` a ``(low, high)`` pair of
#: inclusive bounds; both are evaluated by the compiled-predicate module
#: (:mod:`repro.relalg.predicates`).
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=", "in", "between")

#: Aggregate functions supported by the aggregation block.
AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Parameter:
    """A placeholder for a constant bound at execution time.

    Prepared statements (:mod:`repro.service`) carry parameters where plain
    queries carry literals: ``?`` placeholders are *positional* (``index``
    assigned left to right), ``:name`` placeholders are *named* and may
    appear several times, all occurrences sharing one binding.  A parameter
    may stand anywhere a literal stands — a comparison right-hand side, an
    ``IN`` list element or a ``BETWEEN`` bound.
    """

    index: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.index is None) == (self.name is None):
            raise ParseError("a parameter is either positional (index) or named, not both")

    @property
    def key(self) -> Union[int, str]:
        """The binding key: the position for ``?``, the name for ``:name``."""
        return self.name if self.name is not None else self.index  # type: ignore[return-value]

    @classmethod
    def positional(cls, index: int) -> "Parameter":
        """The ``index``-th ``?`` placeholder (0-based)."""
        return cls(index=index)

    @classmethod
    def named(cls, name: str) -> "Parameter":
        """A ``:name`` placeholder."""
        return cls(name=name)

    def __str__(self) -> str:
        return f":{self.name}" if self.name is not None else "?"


#: Parameter bindings: a sequence (positional) or a mapping keyed by the
#: parameter's :attr:`Parameter.key` (position or name).
Bindings = Union[Sequence[object], Mapping[Union[int, str], object]]


def _contains_parameter(value: object) -> bool:
    if isinstance(value, Parameter):
        return True
    if isinstance(value, (list, tuple)):
        return any(_contains_parameter(item) for item in value)
    return False


def _parameters_in(value: object) -> List[Parameter]:
    if isinstance(value, Parameter):
        return [value]
    if isinstance(value, (list, tuple)):
        found: List[Parameter] = []
        for item in value:
            found.extend(_parameters_in(item))
        return found
    return []


def _substitute(value: object, resolved: Mapping[Union[int, str], object]) -> object:
    if isinstance(value, Parameter):
        return resolved[value.key]
    if isinstance(value, tuple):
        return tuple(_substitute(item, resolved) for item in value)
    if isinstance(value, list):
        return [_substitute(item, resolved) for item in value]
    return value


@dataclass(frozen=True)
class TableRef:
    """A reference to a base table under an alias.

    ``alias`` defaults to the table name; distinct aliases allow self-joins
    (e.g. ``lineitem l1, lineitem l2`` in TPC-H Q21).
    """

    table: str
    alias: str

    @classmethod
    def of(cls, table: str, alias: Optional[str] = None) -> "TableRef":
        """Create a reference, defaulting the alias to the table name."""
        return cls(table=table, alias=alias or table)


@dataclass(frozen=True)
class ColumnRef:
    """A column of an aliased relation, e.g. ``l1.l_orderkey``."""

    alias: str
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class LocalPredicate:
    """A comparison between a column and a constant: ``alias.column op value``."""

    alias: str
    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ParseError(f"unsupported comparison operator {self.op!r}")

    def __str__(self) -> str:
        if self.op == "in":
            rendered = ", ".join(repr(v) for v in self.value)  # type: ignore[union-attr]
            return f"{self.alias}.{self.column} IN ({rendered})"
        if self.op == "between":
            low, high = self.value  # type: ignore[misc]
            return f"{self.alias}.{self.column} BETWEEN {low!r} AND {high!r}"
        return f"{self.alias}.{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_alias.left_column = right_alias.right_column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def normalized(self) -> "JoinPredicate":
        """Return an equivalent predicate with sides in lexicographic order."""
        if (self.left_alias, self.left_column) <= (self.right_alias, self.right_column):
            return self
        return JoinPredicate(
            left_alias=self.right_alias,
            left_column=self.right_column,
            right_alias=self.left_alias,
            right_column=self.left_column,
        )

    def column_for(self, alias: str) -> str:
        """Return the join column on the side of ``alias``."""
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise ParseError(f"alias {alias!r} not part of join predicate {self}")

    def __str__(self) -> str:
        return (
            f"{self.left_alias}.{self.left_column} = "
            f"{self.right_alias}.{self.right_column}"
        )


@dataclass(frozen=True)
class Aggregate:
    """An aggregate output column, e.g. ``sum(l.l_extendedprice) AS revenue``."""

    func: str
    alias: Optional[str]
    column: Optional[str]
    output_name: str

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ParseError(f"unsupported aggregate function {self.func!r}")
        if self.func != "count" and (self.alias is None or self.column is None):
            raise ParseError(f"aggregate {self.func!r} requires a column argument")


@dataclass
class Query:
    """A conjunctive select-project-join(-aggregate) query."""

    tables: List[TableRef] = field(default_factory=list)
    local_predicates: List[LocalPredicate] = field(default_factory=list)
    join_predicates: List[JoinPredicate] = field(default_factory=list)
    projections: List[ColumnRef] = field(default_factory=list)
    aggregates: List[Aggregate] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    name: str = "query"

    # ------------------------------------------------------------------ #
    # Validation and derived structure
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check internal consistency (aliases resolve, no duplicate aliases)."""
        aliases = [ref.alias for ref in self.tables]
        if len(aliases) != len(set(aliases)):
            raise ParseError(f"duplicate table aliases in query {self.name!r}")
        known = set(aliases)
        for predicate in self.local_predicates:
            if predicate.alias not in known:
                raise ParseError(f"local predicate references unknown alias {predicate.alias!r}")
        for predicate in self.join_predicates:
            if predicate.left_alias not in known or predicate.right_alias not in known:
                raise ParseError(f"join predicate references unknown alias: {predicate}")
            if predicate.left_alias == predicate.right_alias:
                raise ParseError(f"join predicate must reference two distinct aliases: {predicate}")
        for ref in list(self.projections) + list(self.group_by):
            if ref.alias not in known:
                raise ParseError(f"output column references unknown alias {ref.alias!r}")
        for aggregate in self.aggregates:
            if aggregate.alias is not None and aggregate.alias not in known:
                raise ParseError(f"aggregate references unknown alias {aggregate.alias!r}")

    # ------------------------------------------------------------------ #
    # Parameters (prepared statements)
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All parameter placeholders, deduplicated, in appearance order.

        Positional parameters appear once per ``?``; a named parameter
        appears once however many times ``:name`` occurs.
        """
        seen: Dict[Union[int, str], Parameter] = {}
        for predicate in self.local_predicates:
            for parameter in _parameters_in(predicate.value):
                seen.setdefault(parameter.key, parameter)
        return list(seen.values())

    @property
    def is_parameterized(self) -> bool:
        """True when at least one predicate value is an unbound parameter."""
        return any(_contains_parameter(p.value) for p in self.local_predicates)

    def ensure_bound(self) -> None:
        """Raise :class:`ParseError` if any parameter is still unbound.

        Planning, sampling and execution all require concrete constants;
        callers holding a parameterized template must :meth:`bind` first.
        """
        if self.is_parameterized:
            unbound = ", ".join(str(p) for p in self.parameters())
            raise ParseError(
                f"query {self.name!r} has unbound parameters ({unbound}); "
                "bind them before planning or executing"
            )

    def bind(self, bindings: Bindings, name: Optional[str] = None) -> "Query":
        """Return a copy with every parameter replaced by its binding.

        ``bindings`` is a sequence (positional parameters, by index) or a
        mapping keyed by parameter key (position or name).  Missing or
        surplus bindings raise :class:`ParseError`.
        """
        parameters = self.parameters()
        if isinstance(bindings, Mapping):
            resolved = dict(bindings)
        else:
            resolved = {index: value for index, value in enumerate(bindings)}
        wanted = {parameter.key for parameter in parameters}
        missing = sorted((key for key in wanted if key not in resolved), key=str)
        if missing:
            raise ParseError(
                f"missing bindings for parameters {missing} of query {self.name!r}"
            )
        surplus = sorted((key for key in resolved if key not in wanted), key=str)
        if surplus:
            raise ParseError(
                f"unknown parameter bindings {surplus} for query {self.name!r}"
            )
        bound = Query(
            tables=list(self.tables),
            local_predicates=[
                replace(p, value=_substitute(p.value, resolved))
                if _contains_parameter(p.value)
                else p
                for p in self.local_predicates
            ],
            join_predicates=list(self.join_predicates),
            projections=list(self.projections),
            aggregates=list(self.aggregates),
            group_by=list(self.group_by),
            name=name if name is not None else self.name,
        )
        bound.validate()
        return bound

    @property
    def aliases(self) -> List[str]:
        """All relation aliases, in FROM-clause order."""
        return [ref.alias for ref in self.tables]

    def table_for_alias(self, alias: str) -> str:
        """Return the base-table name behind ``alias``."""
        for ref in self.tables:
            if ref.alias == alias:
                return ref.table
        raise ParseError(f"unknown alias {alias!r} in query {self.name!r}")

    def local_predicates_for(self, alias: str) -> List[LocalPredicate]:
        """All local predicates attached to one relation alias."""
        return [p for p in self.local_predicates if p.alias == alias]

    def join_predicates_between(
        self, left: FrozenSet[str] | set, right: FrozenSet[str] | set
    ) -> List[JoinPredicate]:
        """Join predicates with one side in ``left`` and the other in ``right``."""
        result = []
        for predicate in self.join_predicates:
            if predicate.left_alias in left and predicate.right_alias in right:
                result.append(predicate)
            elif predicate.left_alias in right and predicate.right_alias in left:
                result.append(predicate)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Query({self.name!r}, tables={len(self.tables)}, "
            f"joins={len(self.join_predicates)}, filters={len(self.local_predicates)})"
        )
