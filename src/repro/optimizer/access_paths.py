"""Access-path selection for base relations (sequential vs index scan).

For each relation alias of a query the planner builds the cheapest scan:

* a sequential scan applying all local predicates, and
* an index scan for every equality predicate on an indexed column, with the
  remaining predicates applied as residual filters.

Both candidates share the estimator's output cardinality; they differ only in
cost, which is how PostgreSQL chooses between them.
"""

from __future__ import annotations

from typing import List

from repro.cardinality.estimator import CardinalityEstimator
from repro.cardinality.selectivity import equality_selectivity
from repro.cost.model import CostModel
from repro.plans.nodes import ScanMethod, ScanNode
from repro.sql.ast import Query
from repro.storage.catalog import Database


def best_scan(
    db: Database,
    query: Query,
    alias: str,
    estimator: CardinalityEstimator,
    cost_model: CostModel,
) -> ScanNode:
    """Build the cheapest scan over ``alias`` given the query's local predicates."""
    table_name = query.table_for_alias(alias)
    table = db.table(table_name)
    predicates = tuple(query.local_predicates_for(alias))
    output_rows = estimator.base_cardinality(alias)
    table_rows = float(table.num_rows)

    candidates: List[ScanNode] = []

    seq_resources = cost_model.seq_scan_resources(table_rows, len(predicates), output_rows)
    candidates.append(
        ScanNode(
            relations=frozenset({alias}),
            estimated_rows=output_rows,
            estimated_cost=cost_model.cost(seq_resources),
            table=table_name,
            alias=alias,
            method=ScanMethod.SEQ_SCAN,
            predicates=predicates,
        )
    )

    table_stats = db.statistics.get(table_name)
    for predicate in predicates:
        if predicate.op != "=":
            continue
        if not db.has_index(table_name, predicate.column):
            continue
        column_stats = (
            table_stats.column(predicate.column)
            if table_stats is not None and table_stats.has_column(predicate.column)
            else None
        )
        matched_rows = table_rows * equality_selectivity(column_stats, predicate.value)
        residual = len(predicates) - 1
        resources = cost_model.index_scan_resources(
            table_rows, matched_rows, residual, output_rows
        )
        candidates.append(
            ScanNode(
                relations=frozenset({alias}),
                estimated_rows=output_rows,
                estimated_cost=cost_model.cost(resources),
                table=table_name,
                alias=alias,
                method=ScanMethod.INDEX_SCAN,
                predicates=predicates,
                index_column=predicate.column,
            )
        )

    return min(candidates, key=lambda node: node.estimated_cost)
