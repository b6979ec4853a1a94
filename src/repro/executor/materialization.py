"""Canonical row order and the order-sensitivity classification.

A join's output row *multiset* is independent of the join order that
produced it, but its row *order* is not.  Every aggregate is a function of
the row multiset (``SUM``/``AVG`` are correctly rounded, see
:func:`~repro.relalg.aggregate.exact_group_sums`; group keys are sorted), so
only a bare projection exposes row order (:func:`needs_canonical_order`).
For it, :func:`canonicalize_relation` projects the final pipeline's output to
the output stage's input columns and sorts it by all of them
(:func:`canonical_row_order`) — the bit-identity guarantee of the service and
the sharded coordinator alike.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

import numpy as np

from repro.relalg import Relation
from repro.relalg.encoding import sort_key, stable_order
from repro.sql.ast import Query


def needs_canonical_order(query: Query) -> bool:
    """Whether the query's output depends on the input row order: true
    exactly for bare projections, which expose it directly.  Aggregates and
    group keys do not (see the module docstring)."""
    return not query.aggregates and not query.group_by


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
