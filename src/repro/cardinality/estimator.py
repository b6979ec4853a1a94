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

*Exact* Γ entries (true cardinalities executed shard fragments observed,
delivered by the sharded coordinator's gossip)
additionally **extrapolate**: the estimate of a superset of an exact join set
is anchored at the observed value and expanded outward (remaining base
cardinalities times the crossing join selectivities) instead of re-deriving
the whole product from single-column statistics.  Without this, an observed
explosion would correct only the one join set that was executed while every
superset kept the original mis-estimate — and the re-planned search would
walk back into the same trap one join later.  Sampled entries deliberately do
not extrapolate: the paper feeds them back only for the exact join sets the
samples validated, and the reproduction keeps Algorithm 1's behavior
bit-identical to that.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.cardinality.gamma import Gamma
from repro.cardinality.join_estimation import equijoin_selectivity
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
            n_left = left_stats.n_distinct if left_stats is not None else 1
            n_right = right_stats.n_distinct if right_stats is not None else 1
            selectivity = 1.0 / max(1, n_left, n_right)
        self._selectivity_cache[key] = selectivity
        return selectivity

    def _largest_exact_subset(self, key: FrozenSet[str]) -> Optional[FrozenSet[str]]:
        """The largest strict subset of ``key`` with an exact Γ entry.

        Only multi-relation subsets anchor an extrapolation (singletons are
        already consulted by ``base_cardinality``).  Ties break on the sorted
        alias tuple so the estimate is deterministic.
        """
        best: Optional[FrozenSet[str]] = None
        for exact in self.gamma.exact_join_sets():
            if len(exact) < 2 or not exact < key:
                continue
            if best is None or (len(exact), sorted(exact)) > (len(best), sorted(best)):
                best = exact
        return best

    def joinset_cardinality(self, aliases: Iterable[str]) -> float:
        """Estimated rows of the join of ``aliases`` (local predicates applied).

        A validated entry for exactly this join set in Γ takes precedence.
        Otherwise, if a subset of the join set has an *exact* Γ entry, the
        estimate is anchored there: observed cardinality times the estimate
        of the remaining relations times the selectivities of the join
        predicates crossing between the two parts (predicates inside the
        anchor are already baked into the observation).
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

        anchor = self._largest_exact_subset(key)
        if anchor is not None:
            cardinality = max(self.gamma.get(anchor) or 0.0, 0.0)
            rest = key - anchor
            cardinality *= self.joinset_cardinality(rest)
            for predicate in self.query.join_predicates:
                left_in_anchor = predicate.left_alias in anchor
                right_in_anchor = predicate.right_alias in anchor
                if left_in_anchor and right_in_anchor:
                    continue
                if (predicate.left_alias in key and predicate.right_alias in key) and (
                    left_in_anchor or right_in_anchor
                ):
                    cardinality *= self.join_predicate_selectivity(predicate)
        else:
            cardinality = 1.0
            for alias in key:
                cardinality *= self.base_cardinality(alias)
            for predicate in self.query.join_predicates:
                if predicate.left_alias in key and predicate.right_alias in key:
                    cardinality *= self.join_predicate_selectivity(predicate)
        cardinality = max(cardinality, MIN_SELECTIVITY)
        self._join_cache[key] = cardinality
        return cardinality

    def join_cardinality(self, left: Iterable[str], right: Iterable[str]) -> float:
        """Estimated output rows of joining two disjoint relation sets."""
        return self.joinset_cardinality(frozenset(left) | frozenset(right))

    # ------------------------------------------------------------------ #
    # Cache control
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop memoized estimates (call after Γ changes)."""
        self._base_cache.clear()
        self._join_cache.clear()
