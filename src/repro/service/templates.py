"""Prepared-statement templates.

A :class:`PreparedStatement` is the unit the query service caches around: a
parameterized query (``?`` / ``:name`` placeholders in literal positions),
normalized into a *template fingerprint* that identifies the statement up to
its parameter slots.  Two clients preparing the same SQL text — or the same
:class:`~repro.sql.builder.QueryBuilder` shape with different spellings of
the baked-in constants — share one template, one plan-cache line and one
result-cache family.

Binding produces a plain bound :class:`~repro.sql.ast.Query` (every
parameter replaced by a constant) plus the canonical *binding key* the
result cache uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.sql.ast import Bindings, Query
from repro.sql.fingerprint import binding_key, template_fingerprint
from repro.sql.parser import parse_query


@dataclass(frozen=True)
class PreparedStatement:
    """A normalized, fingerprinted prepared statement."""

    #: Statement name: the query's name (``prepared`` for SQL text).
    name: str
    #: The parameterized (or constant-only) query template.
    query: Query
    #: Normalized identity of the template (parameter slots abstracted).
    fingerprint: Tuple = field(repr=False)

    @property
    def tables(self) -> List[str]:
        """Base tables the statement reads (for epoch snapshots)."""
        return sorted({ref.table for ref in self.query.tables})

    def bind(self, bindings: Optional[Bindings] = None) -> Query:
        """A bound, executable query for one set of parameter values."""
        if bindings is None:
            bindings = ()
        return self.query.bind(bindings, name=self.name)

    def binding_key(self, bindings: Optional[Bindings] = None) -> Tuple:
        """Canonical result-cache key component for ``bindings``."""
        return binding_key(self.query, bindings if bindings is not None else ())


def prepare_statement(statement: Union[str, Query, PreparedStatement]) -> PreparedStatement:
    """Normalize SQL text / a query / an existing statement into a template."""
    if isinstance(statement, PreparedStatement):
        return statement
    if isinstance(statement, str):
        query = parse_query(statement, name="prepared")
    else:
        query = statement
        query.validate()
    return PreparedStatement(
        name=query.name,
        query=query,
        fingerprint=template_fingerprint(query),
    )

