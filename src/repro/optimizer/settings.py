"""Optimizer configuration knobs.

The settings are the knobs the paper's configurations vary: the five cost
units (default or calibrated, Section 5.1.2), which join operators are
enabled, whether bushy join trees are explored and whether join
selectivities use MCV matching (the Figure 12/13 profiles).  Index scans are
always considered, as at PostgreSQL's default ``enable_indexscan = on``.
The join search is always the exhaustive DP, up to
``repro.optimizer.dp.MAX_JOIN_RELATIONS`` relations.
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
    #: Use PostgreSQL-style MCV matching when estimating join selectivities;
    #: False falls back to the plain System R reduction factor.
    use_mcv_join_refinement: bool = True
    #: Human-readable profile name ("postgresql", "system_a", "system_b").
    profile: str = "postgresql"
