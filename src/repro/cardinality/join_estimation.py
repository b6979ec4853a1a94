"""Join selectivity estimation (PostgreSQL / System R style).

For an equi-join predicate ``B1 = B2`` (Section 4.2.1 of the paper):

* without MCV lists on both sides, use the System R reduction factor
  ``1 / max(n_distinct(B1), n_distinct(B2))`` [Selinger et al. 1979];
* with MCV lists on both sides, first "join" the two MCV lists — the matched
  part is exact — then handle the remaining mass with the reduction-factor
  formula over the non-MCV distinct values (PostgreSQL's ``eqjoinsel``).

The selectivity returned is relative to the cross product of the two inputs.
"""

from __future__ import annotations

from typing import Optional

from repro.cardinality.selectivity import MIN_SELECTIVITY, _clamp
from repro.stats.statistics import ColumnStatistics

#: Fallback selectivity when no statistics exist on either side.
DEFAULT_JOIN_SELECTIVITY = 0.005


def system_r_selectivity(
    left: Optional[ColumnStatistics], right: Optional[ColumnStatistics]
) -> float:
    """System R's reduction factor ``1 / max(n_distinct)``, the rule without MCVs.

    A side without statistics does not vote; with neither side analyzed the
    selectivity is :data:`DEFAULT_JOIN_SELECTIVITY`.
    """
    if left is None and right is None:
        return DEFAULT_JOIN_SELECTIVITY
    n_left = left.n_distinct if left is not None else 1
    n_right = right.n_distinct if right is not None else 1
    return _clamp(1.0 / max(1, n_left, n_right))


def equijoin_selectivity(
    left: Optional[ColumnStatistics], right: Optional[ColumnStatistics]
) -> float:
    """Selectivity of ``left_column = right_column`` relative to the cross product."""
    if left is None or right is None or not (left.mcv_values and right.mcv_values):
        return system_r_selectivity(left, right)

    # --- PostgreSQL eqjoinsel with MCV matching -------------------------- #
    right_mcv = dict(zip(right.mcv_values, right.mcv_fractions))
    matched = 0.0
    matched_left_fraction = 0.0
    matched_right_fraction = 0.0
    for value, left_fraction in zip(left.mcv_values, left.mcv_fractions):
        right_fraction = right_mcv.get(value)
        if right_fraction is None:
            continue
        matched += left_fraction * right_fraction
        matched_left_fraction += left_fraction
        matched_right_fraction += right_fraction

    # Unmatched MCV mass and non-MCV mass on each side.
    left_unmatched = max(0.0, 1.0 - matched_left_fraction)
    right_unmatched = max(0.0, 1.0 - matched_right_fraction)
    left_other_distinct = max(1, left.n_distinct - left.num_mcvs)
    right_other_distinct = max(1, right.n_distinct - right.num_mcvs)

    if left.num_mcvs >= left.n_distinct and right.num_mcvs >= right.n_distinct:
        # Both MCV lists are complete: the matched part is the whole answer.
        return max(MIN_SELECTIVITY, matched)

    # Remaining mass: assume each unmatched left value joins with the
    # "average" right value outside the matched MCVs (and vice versa), using
    # the larger distinct count as the reduction factor, as PostgreSQL does.
    remainder = (left_unmatched * right_unmatched) / max(
        left_other_distinct, right_other_distinct
    )
    return _clamp(matched + remainder)
