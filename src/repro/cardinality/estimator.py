"""The optimizer's cardinality estimator.

For a given query the estimator answers one question: *how many rows does the
join of a given set of relations produce (with all local predicates of the
query applied)?*  The answer is computed the way PostgreSQL computes it:

* base relations — table row count times the product of the local-predicate
  selectivities (MCV/histogram based, AVI across predicates);
* joins — product of the base cardinalities times the product of the
  selectivities of every join predicate whose two sides fall inside the set.

On top of that sits the paper's mechanism: if the join set has a validated
cardinality in Γ (:class:`repro.cardinality.gamma.Gamma`), that value is used
instead of the histogram estimate.  This is how the refined sampling-based
estimates are "fed back" to the optimizer without changing its search
algorithm.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.cardinality.gamma import Gamma
from repro.cardinality.join_estimation import equijoin_selectivity, system_r_selectivity
from repro.cardinality.selectivity import (
    MIN_SELECTIVITY,
    conjunction_selectivity,
    local_predicate_selectivity,
)
from repro.sql.ast import JoinPredicate, Query
from repro.stats.statistics import ColumnStatistics
from repro.storage.catalog import Database


class CardinalityEstimator:
    """Histogram/AVI cardinality estimation with Γ overrides."""

    def __init__(
        self,
        db: Database,
        query: Query,
        gamma: Optional[Gamma] = None,
        use_mcv_join_refinement: bool = True,
    ) -> None:
        self.db = db
        self.query = query
        self.gamma = gamma if gamma is not None else Gamma()
        #: When False, join selectivities fall back to the plain System R
        #: ``1/max(n_distinct)`` formula without MCV matching — used by the
        #: "commercial system" optimizer profiles.
        self.use_mcv_join_refinement = use_mcv_join_refinement
        self._base_cache: Dict[str, float] = {}
        self._join_cache: Dict[FrozenSet[str], float] = {}
        self._selectivity_cache: Dict[FrozenSet[str], float] = {}

    # ------------------------------------------------------------------ #
    # Statistics lookup helpers
    # ------------------------------------------------------------------ #
    def _column_stats(self, alias: str, column: str) -> Optional[ColumnStatistics]:
        table_name = self.query.table_for_alias(alias)
        if table_name not in self.db.statistics:
            return None
        table_stats = self.db.statistics[table_name]
        if not table_stats.has_column(column):
            return None
        return table_stats.column(column)

    def _table_rows(self, alias: str) -> float:
        table_name = self.query.table_for_alias(alias)
        if table_name in self.db.statistics:
            return float(self.db.statistics[table_name].row_count)
        return float(self.db.table(table_name).num_rows)

    # ------------------------------------------------------------------ #
    # Base relations
    # ------------------------------------------------------------------ #
    def base_selectivity(self, alias: str) -> float:
        """Combined selectivity of all local predicates on ``alias`` (AVI)."""
        predicates = self.query.local_predicates_for(alias)
        if not predicates:
            return 1.0
        selectivities = [
            local_predicate_selectivity(self._column_stats(alias, p.column), p)
            for p in predicates
        ]
        return conjunction_selectivity(selectivities)

    def base_cardinality(self, alias: str) -> float:
        """Estimated rows of ``alias`` after its local predicates.

        A validated singleton entry in Γ takes precedence over the estimate.
        """
        validated = self.gamma.get({alias})
        if validated is not None:
            return max(validated, 0.0)
        if alias in self._base_cache:
            return self._base_cache[alias]
        estimate = self._table_rows(alias) * self.base_selectivity(alias)
        estimate = max(estimate, MIN_SELECTIVITY)
        self._base_cache[alias] = estimate
        return estimate

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def join_predicate_selectivity(self, predicate: JoinPredicate) -> float:
        """Selectivity of a single equi-join predicate (cached per query)."""
        key = frozenset(
            {
                (predicate.left_alias, predicate.left_column),
                (predicate.right_alias, predicate.right_column),
            }
        )
        if key in self._selectivity_cache:
            return self._selectivity_cache[key]
        left_stats = self._column_stats(predicate.left_alias, predicate.left_column)
        right_stats = self._column_stats(predicate.right_alias, predicate.right_column)
        if self.use_mcv_join_refinement:
            selectivity = equijoin_selectivity(left_stats, right_stats)
        else:
            selectivity = system_r_selectivity(left_stats, right_stats)
        self._selectivity_cache[key] = selectivity
        return selectivity

    def joinset_cardinality(self, aliases: Iterable[str]) -> float:
        """Estimated rows of the join of ``aliases`` (local predicates applied).

        A validated entry for exactly this join set in Γ takes precedence.
        """
        key = frozenset(aliases)
        if not key:
            raise ValueError("join set must contain at least one relation")
        validated = self.gamma.get(key)
        if validated is not None:
            return max(validated, 0.0)
        if len(key) == 1:
            (alias,) = key
            return self.base_cardinality(alias)
        if key in self._join_cache:
            return self._join_cache[key]
        cardinality = 1.0
        for alias in key:
            cardinality *= self.base_cardinality(alias)
        for predicate in self.query.join_predicates:
            if predicate.left_alias in key and predicate.right_alias in key:
                cardinality *= self.join_predicate_selectivity(predicate)
        cardinality = max(cardinality, MIN_SELECTIVITY)
        self._join_cache[key] = cardinality
        return cardinality
