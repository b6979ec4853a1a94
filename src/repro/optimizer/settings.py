"""Optimizer configuration knobs.

The settings mirror the PostgreSQL knobs the paper interacts with: the five
cost units (default or calibrated, Section 5.1.2), which physical operators
are enabled, and whether bushy join trees are explored.  The join search is
always the exhaustive DP, up to ``repro.optimizer.dp.MAX_JOIN_RELATIONS``
relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.cost.units import CostUnits, DEFAULT_COST_UNITS
from repro.plans.nodes import JoinMethod


@dataclass(frozen=True)
class OptimizerSettings:
    """Everything the planner needs besides the database and the query."""

    #: Cost units used to score plans (replace with calibrated units to get
    #: the paper's "with calibration" configuration).
    cost_units: CostUnits = DEFAULT_COST_UNITS
    #: Explore bushy join trees (True) or only left-deep trees (False).
    allow_bushy: bool = True
    #: Physical join operators the planner may use.
    enabled_join_methods: FrozenSet[JoinMethod] = frozenset(
        {
            JoinMethod.HASH_JOIN,
            JoinMethod.MERGE_JOIN,
            JoinMethod.NESTED_LOOP,
            JoinMethod.INDEX_NESTED_LOOP,
        }
    )
    #: Allow index scans on base tables (when an index and an equality
    #: predicate are available).
    enable_index_scan: bool = True
    #: Use PostgreSQL-style MCV matching when estimating join selectivities;
    #: False falls back to the plain System R reduction factor.
    use_mcv_join_refinement: bool = True
    #: Human-readable profile name ("postgresql", "system_a", "system_b").
    profile: str = "postgresql"
