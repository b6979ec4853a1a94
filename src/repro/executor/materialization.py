"""Canonical row order and the order-sensitivity classification.

A join's output row *multiset* is independent of the join order that
produced it, but its row *order* is not.  :func:`canonicalize_relation`
projects the final pipeline's output to the output stage's input columns and
sorts it by all of them (:func:`canonical_row_order`).  That makes
order-sensitive results (:func:`needs_canonical_order`: float ``SUM``/``AVG``
accumulation, bare projections) a pure function of the row multiset — the
bit-identity guarantee of the service and the sharded coordinator alike.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Set, Tuple

import numpy as np

from repro.relalg import Relation
from repro.relalg.aggregate import partial_merge_exact
from repro.relalg.encoding import sort_key, stable_order
from repro.sql.ast import Query
from repro.storage.catalog import Database


def exact_partial_columns(
    db: Database, query: Query
) -> AbstractSet[Tuple[Optional[str], Optional[str]]]:
    """The aggregate input columns whose sums are exact in any row order.

    Integer-typed columns sum exactly in any order (int64 sums, and float64
    holds integer-valued sums exactly below 2**53 — the engine's aggregation
    dtype); float columns do not.  The result feeds
    :func:`repro.relalg.aggregate.partial_merge_exact`.
    """
    exact: Set[Tuple[Optional[str], Optional[str]]] = set()
    for aggregate in query.aggregates:
        if aggregate.alias is None or aggregate.column is None:
            continue
        table = db.table(query.table_for_alias(aggregate.alias))
        if table.schema.column(aggregate.column).type == "int":
            exact.add((aggregate.alias, aggregate.column))
    return exact


def needs_canonical_order(db: Database, query: Query) -> bool:
    """Whether the query's output depends on the input row order.

    The one order-sensitivity classification: bare projections expose row
    order directly; aggregates are order-sensitive exactly when
    :func:`~repro.relalg.aggregate.partial_merge_exact` says their partials
    do not compose — float ``SUM``/``AVG`` accumulate in row order, while
    ``COUNT``/``MIN``/``MAX``, integer ``SUM``/``AVG`` and group keys (which
    are sorted) do not.  The sharded coordinator takes its ``partial`` merge
    path on the same answer.
    """
    if not query.aggregates and not query.group_by:
        return True
    return not partial_merge_exact(query.aggregates, exact_partial_columns(db, query))


def canonical_row_order(relation: Relation) -> Optional[np.ndarray]:
    """A permutation sorting the relation's rows lexicographically by all
    columns (column names in sorted order, ties by row: one ``stable_order``).

    Returns ``None`` when the relation carries no columns (nothing to order
    by — and nothing whose order could matter) or fewer than two rows.
    """
    if not relation or relation.num_rows < 2:
        return None
    names = sorted(relation)
    return stable_order(*[sort_key(relation[name]) for name in names])


def canonicalize_relation(
    relation: Relation, live: Optional[AbstractSet[str]] = None
) -> Relation:
    """``relation`` projected to the ``live`` columns (``None`` = all it has)
    with its rows in canonical order (see above)."""
    if live is not None:
        relation = relation.project(live)
    order = canonical_row_order(relation)
    if order is None:
        return relation
    return relation.take(order)
