"""The experiment harness shared by all figure benchmarks.

``run_query_suite`` runs every query of a workload through the full paper
pipeline — original optimization, Algorithm 1 re-optimization, execution of
both the original and the final plan — and records the metrics the paper's
figures plot:

* "running time" of the original and the re-optimized plan, both as the
  deterministic simulated cost (cost model at true cardinalities) and as
  measured wall-clock seconds;
* number of plans generated during re-optimization (Figures 5/8/16/20);
* time spent inside re-optimization, so the "excluding vs including
  re-optimization time" figures (6/9/17/18) can be produced;
* per-round execution times of the intermediate plans (Figures 14/15).

``calibrated_settings`` reproduces the "with calibration of the cost units"
configuration by fitting the five cost units against the executor
(Section 5.1.2) and returning optimizer settings that use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cost.calibration import calibrate_cost_units
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.reopt.algorithm import ReoptimizationSettings, Reoptimizer
from repro.sql.ast import Query
from repro.storage.catalog import Database


@dataclass
class QueryRunRecord:
    """All metrics collected for one query instance."""

    query_name: str
    original_simulated_cost: float
    reoptimized_simulated_cost: float
    original_wall_seconds: float
    reoptimized_wall_seconds: float
    plans_generated: int
    plan_changed: bool
    reoptimization_seconds: float
    sampling_seconds: float
    converged: bool
    #: Simulated cost of the plan produced in each re-optimization round
    #: (index 0 = original plan) — the data behind Figures 14/15.
    per_round_simulated_cost: List[float] = field(default_factory=list)
    #: Wall-clock seconds spent inside the optimizer per round; with the
    #: incremental planner, round 2+ entries shrink towards zero.
    planning_seconds_per_round: List[float] = field(default_factory=list)
    #: DP masks (re-)expanded per round (None entries for GEQO rounds).
    dp_masks_expanded_per_round: List[Optional[int]] = field(default_factory=list)

    @property
    def total_with_reoptimization(self) -> float:
        """Re-optimized running time including the re-optimization overhead.

        Overhead is charged in wall-clock seconds on top of the re-optimized
        plan's wall-clock time (the paper's Figures 6/9/17/18 use the same
        accounting).
        """
        return self.reoptimized_wall_seconds + self.reoptimization_seconds


def run_query_suite(
    db: Database,
    queries: Sequence[Query],
    optimizer_settings: Optional[OptimizerSettings] = None,
    reopt_settings: Optional[ReoptimizationSettings] = None,
    execute_intermediate_plans: bool = False,
    execute_plans: bool = True,
) -> List[QueryRunRecord]:
    """Run the full pipeline for every query and collect per-query records."""
    optimizer = Optimizer(db, settings=optimizer_settings)
    executor = Executor(
        db,
        cost_units=optimizer.settings.cost_units,
        nested_loop_block_elements=optimizer.settings.nested_loop_block_elements,
    )
    reoptimizer = Reoptimizer(db, optimizer=optimizer, settings=reopt_settings)
    results = [reoptimizer.reoptimize(query) for query in queries]
    records: List[QueryRunRecord] = []
    for query, result in zip(queries, results):
        if execute_plans:
            original_execution = executor.execute_plan(result.original_plan, query)
            if result.plan_changed:
                final_execution = executor.execute_plan(result.final_plan, query)
            else:
                final_execution = original_execution
        else:
            original_execution = None
            final_execution = None

        per_round_costs: List[float] = []
        if execute_intermediate_plans:
            seen_signatures = set()
            for record in result.report.rounds:
                signature = record.plan.signature()
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                execution = executor.execute_plan(record.plan, query)
                per_round_costs.append(execution.simulated_cost)

        records.append(
            QueryRunRecord(
                query_name=query.name,
                original_simulated_cost=(
                    original_execution.simulated_cost if original_execution else 0.0
                ),
                reoptimized_simulated_cost=(
                    final_execution.simulated_cost if final_execution else 0.0
                ),
                original_wall_seconds=(
                    original_execution.wall_seconds if original_execution else 0.0
                ),
                reoptimized_wall_seconds=(
                    final_execution.wall_seconds if final_execution else 0.0
                ),
                plans_generated=result.report.num_plans_generated,
                plan_changed=result.plan_changed,
                reoptimization_seconds=result.reoptimization_seconds,
                sampling_seconds=result.report.total_sampling_seconds,
                converged=result.converged,
                per_round_simulated_cost=per_round_costs,
                planning_seconds_per_round=[
                    record.planning_seconds for record in result.report.rounds
                ],
                dp_masks_expanded_per_round=result.report.dp_masks_per_round(),
            )
        )
    return records


def calibrated_settings(
    db: Database,
    base_settings: Optional[OptimizerSettings] = None,
    calibration_queries: Optional[Sequence[Query]] = None,
) -> OptimizerSettings:
    """Return optimizer settings whose cost units were calibrated on ``db``.

    This is the paper's "with calibration" configuration: the five cost units
    are replaced by values fitted so that estimated costs are commensurate
    with observed execution effort on this machine.
    """
    base = base_settings if base_settings is not None else OptimizerSettings()
    calibration = calibrate_cost_units(db, queries=calibration_queries)
    return base.with_units(calibration.units)


def aggregate_by_template(records: Sequence[QueryRunRecord]) -> Dict[str, List[QueryRunRecord]]:
    """Group instance records (named ``q3_i0``, ``q3_i1``, ...) by template name."""
    grouped: Dict[str, List[QueryRunRecord]] = {}
    for record in records:
        template = record.query_name.split("_i")[0]
        grouped.setdefault(template, []).append(record)
    return grouped


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)
