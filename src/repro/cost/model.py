"""The cost model.

Every physical operator's work is expressed as a :class:`ResourceVector` — how
many sequential page reads, random page reads, tuple visits, index-tuple
visits and primitive operator evaluations it performs, as a function of its
input/output cardinalities.  The scalar cost is the dot product of that vector
with the five :class:`repro.cost.units.CostUnits`, exactly PostgreSQL's
linear-cost-model structure.  Keeping the vector explicit has two benefits:

* the optimizer and the executor share one set of formulas — the optimizer
  evaluates them at *estimated* cardinalities, the executor at *actual*
  cardinalities (the "simulated running time" of the benchmarks);
* calibration (:mod:`repro.cost.calibration`) can fit the five units by
  linear regression of observed running time on observed resource vectors,
  mirroring Wu et al. [40].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cost.units import CostUnits, DEFAULT_COST_UNITS
from repro.plans.nodes import JoinMethod

# Aliases: an enum member lookup costs ~0.1 µs, and the join formulas run once
# per (split, method) alternative of the join search.
_HASH_JOIN, _MERGE_JOIN = JoinMethod.HASH_JOIN, JoinMethod.MERGE_JOIN
_NESTED_LOOP, _INDEX_NESTED_LOOP = JoinMethod.NESTED_LOOP, JoinMethod.INDEX_NESTED_LOOP

#: Tuples on one logical page: page reads are ``ceil(rows / TUPLES_PER_PAGE)``.
TUPLES_PER_PAGE = 100


def _operator_evals(
    method: JoinMethod, outer_rows: float, inner_rows: float, inner_table_rows: float
) -> float:
    """Primitive operator evaluations of one join: the per-method term."""
    if method is _HASH_JOIN:
        # Build a table on the inner input, probe with the outer.
        return 2.0 * inner_rows + outer_rows
    if method is _MERGE_JOIN:
        # Sort both inputs, then a linear merge.
        sort_cost = 0.0
        for rows in (outer_rows, inner_rows):
            if rows > 1:
                sort_cost += rows * math.log2(rows)
        return sort_cost + outer_rows + inner_rows
    if method is _NESTED_LOOP:
        # Compare every pair.
        return max(outer_rows, 1.0) * max(inner_rows, 1.0)
    # Index nested loop: one index descent into the inner table per outer row.
    return max(outer_rows, 1.0) * math.log2(max(inner_table_rows or inner_rows, 2.0))


@dataclass(frozen=True)
class ResourceVector:
    """Counts of the five primitive operations charged by the cost model."""

    seq_pages: float = 0.0
    random_pages: float = 0.0
    tuples: float = 0.0
    index_tuples: float = 0.0
    operator_evals: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            seq_pages=self.seq_pages + other.seq_pages,
            random_pages=self.random_pages + other.random_pages,
            tuples=self.tuples + other.tuples,
            index_tuples=self.index_tuples + other.index_tuples,
            operator_evals=self.operator_evals + other.operator_evals,
        )

    def as_array(self) -> np.ndarray:
        """Return the vector in the order of :meth:`CostUnits.as_dict`."""
        return np.array(
            [
                self.seq_pages,
                self.random_pages,
                self.tuples,
                self.index_tuples,
                self.operator_evals,
            ],
            dtype=np.float64,
        )


class CostModel:
    """Per-operator resource formulas plus the dot product with the cost units."""

    def __init__(self, units: CostUnits = DEFAULT_COST_UNITS) -> None:
        self.units = units

    # ------------------------------------------------------------------ #
    # Scalar cost
    # ------------------------------------------------------------------ #
    def cost(self, resources: ResourceVector) -> float:
        """Dot product of a resource vector with the cost units."""
        return (
            resources.seq_pages * self.units.seq_page_cost
            + resources.random_pages * self.units.random_page_cost
            + resources.tuples * self.units.cpu_tuple_cost
            + resources.index_tuples * self.units.cpu_index_tuple_cost
            + resources.operator_evals * self.units.cpu_operator_cost
        )

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    def _pages(self, rows: float) -> float:
        return max(1.0, math.ceil(rows / TUPLES_PER_PAGE))

    def seq_scan_resources(
        self, table_rows: float, num_predicates: int, output_rows: float
    ) -> ResourceVector:
        """Sequential scan: read every page, visit every tuple, evaluate filters."""
        return ResourceVector(
            seq_pages=self._pages(table_rows),
            tuples=table_rows,
            operator_evals=num_predicates * table_rows + output_rows,
        )

    def index_scan_resources(
        self,
        table_rows: float,
        index_matched_rows: float,
        num_residual_predicates: int,
        output_rows: float,
    ) -> ResourceVector:
        """Index scan: descend the index, fetch matched tuples with random I/O."""
        matched = max(0.0, index_matched_rows)
        fetched_pages = min(self._pages(table_rows), max(1.0, matched))
        return ResourceVector(
            random_pages=fetched_pages,
            tuples=matched,
            index_tuples=matched,
            operator_evals=math.log2(max(table_rows, 2.0))
            + num_residual_predicates * matched
            + output_rows,
        )

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def join_resources(
        self,
        method: JoinMethod,
        outer_rows: float,
        inner_rows: float,
        output_rows: float,
        inner_table_rows: float = 0.0,
    ) -> ResourceVector:
        """Resource vector of one join.

        Every method visits its output tuples; an index nested loop also pays
        one random page and one index tuple per output row.
        """
        probes = output_rows if method is _INDEX_NESTED_LOOP else 0.0
        return ResourceVector(
            random_pages=probes,
            tuples=output_rows,
            index_tuples=probes,
            operator_evals=_operator_evals(method, outer_rows, inner_rows, inner_table_rows),
        )

    def join_pricing(self, methods: Sequence[JoinMethod], output_rows: float) -> "JoinPricing":
        """Price joins that yield ``output_rows``; ``methods`` in tie-break order."""
        return JoinPricing(self, methods, output_rows)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate_resources(self, input_rows: float, output_groups: float) -> ResourceVector:
        """Hash aggregation: one pass over the input, one output tuple per group."""
        return ResourceVector(
            tuples=output_groups,
            operator_evals=input_rows,
        )


class JoinPricing:
    """The one rule that prices join splits, built once per output cardinality.

    :meth:`CostModel.cost` sums its terms left to right, and every term of a
    join's resource vector before the operator evaluations depends only on
    the output rows and on whether the method probes an index.  Those sums
    are taken here once, so a split costs its operator term and two
    additions — bit for bit ``input cost + cost(join_resources(...))``.
    """

    __slots__ = ("_terms", "_operator_cost")

    def __init__(self, model: CostModel, methods: Sequence[JoinMethod], output_rows: float) -> None:
        # cost()'s sum without its zero terms: adding ``0.0 * unit`` is exact
        # for the finite, non-negative units CostUnits admits.
        units = model.units
        plain = output_rows * units.cpu_tuple_cost
        probed = output_rows * units.random_page_cost + plain
        probed += output_rows * units.cpu_index_tuple_cost
        self._terms = tuple(
            (method, probed if method is _INDEX_NESTED_LOOP else plain) for method in methods
        )
        self._operator_cost = units.cpu_operator_cost

    def cheapest(
        self,
        input_cost: float,
        outer_rows: float,
        inner_rows: float,
        has_predicates: bool,
        indexed_inner_rows: Optional[float],
        bound: float,
    ) -> Optional[Tuple[float, JoinMethod]]:
        """The cheapest ``(cumulative cost, method)`` of one split below
        ``bound`` — the first method on ties — or ``None``.

        ``input_cost`` is the summed cost of the two inputs.  Hash, merge and
        index nested loop need an equi-join predicate across the split; index
        nested loop also needs ``indexed_inner_rows`` — the row count of the
        inner base table, ``None`` unless the inner side is a base-relation
        scan with an index on one of its join columns.
        """
        best = None
        operator_cost = self._operator_cost
        for method, access_cost in self._terms:
            inner_table_rows = 0.0
            if method is not _NESTED_LOOP:
                if not has_predicates:
                    continue
                if method is _INDEX_NESTED_LOOP:
                    if indexed_inner_rows is None:
                        continue
                    inner_table_rows = indexed_inner_rows
            evals = _operator_evals(method, outer_rows, inner_rows, inner_table_rows)
            cost = input_cost + (access_cost + evals * operator_cost)
            if cost < bound:
                bound, best = cost, method
        return None if best is None else (bound, best)
