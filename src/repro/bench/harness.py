"""The experiment harness behind every figure of the paper scorecard.

``run_query_suite`` runs every query of a workload through the full paper
pipeline — original optimization, Algorithm 1 re-optimization, execution of
both the original and the final plan — and records the metrics the paper's
figures plot:

* "running time" of the original and the re-optimized plan, both as the
  deterministic simulated cost (cost model at true cardinalities) and as
  measured wall-clock seconds;
* the rows every executed node produced (``plan_work_rows``, the same sum
  ``BENCHMARK.json`` gates) for both plans, and how many executed joins of
  the final plan contradict their final Γ entry by more than 10×;
* number of plans generated during re-optimization (Figures 5/8/16/20);
* time spent inside re-optimization, so the "excluding vs including
  re-optimization time" figures (6/9/17/18) can be produced;
* per-round execution times of the intermediate plans (Figures 14/15).

``calibrated_settings`` reproduces the "with calibration of the cost units"
configuration by fitting the five cost units against the executor
(Section 5.1.2) and returning optimizer settings that use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.cardinality.gamma import Gamma
from repro.cost.calibration import calibrate_cost_units
from repro.executor.executor import ExecutionResult, Executor
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.reopt.algorithm import Reoptimizer
from repro.sql.ast import Query
from repro.storage.catalog import Database

#: A join's final Γ entry is contradicted when it and the executed row count
#: differ by more than this factor (each side floored at one row).
CONTRADICTION_FACTOR = 10.0


@dataclass
class QueryRunRecord:
    """All metrics collected for one query instance."""

    query_name: str
    original_simulated_cost: float
    reoptimized_simulated_cost: float
    original_wall_seconds: float
    reoptimized_wall_seconds: float
    #: Rows produced by every executed node of the original / final plan.
    original_work_rows: int
    reoptimized_work_rows: int
    #: Executed joins of the final plan whose final Γ entry the actual rows
    #: contradict by more than :data:`CONTRADICTION_FACTOR`.
    contradicted_joins: int
    plans_generated: int
    plan_changed: bool
    reoptimization_seconds: float
    converged: bool
    #: Simulated cost of the plan produced in each re-optimization round
    #: (index 0 = original plan) — the data behind Figures 14/15.
    per_round_simulated_cost: List[float] = field(default_factory=list)
    #: Wall-clock seconds spent inside the optimizer per round; with the
    #: incremental planner, round 2+ entries shrink towards zero.
    planning_seconds_per_round: List[float] = field(default_factory=list)
    #: DP masks (re-)expanded per round.
    dp_masks_expanded_per_round: List[int] = field(default_factory=list)


def work_rows(execution: ExecutionResult) -> int:
    """Rows produced by every executed node (``plan_work_rows``)."""
    return sum(node.actual_rows for node in execution.node_executions)


def contradicted_joins(execution: ExecutionResult, gamma: Gamma) -> int:
    """Executed joins whose Γ entry is off by more than the contradiction factor."""
    count = 0
    for node in execution.node_executions:
        validated = gamma.get(node.relations)
        if not node.kind.startswith("join:") or validated is None:
            continue
        actual, believed = max(node.actual_rows, 1), max(validated, 1.0)
        if max(actual / believed, believed / actual) > CONTRADICTION_FACTOR:
            count += 1
    return count


def run_query_suite(
    db: Database,
    queries: Sequence[Query],
    optimizer_settings: Optional[OptimizerSettings] = None,
    execute_intermediate_plans: bool = False,
) -> List[QueryRunRecord]:
    """Run the full pipeline for every query and collect per-query records."""
    optimizer = Optimizer(db, settings=optimizer_settings)
    executor = Executor(db, cost_units=optimizer.settings.cost_units)
    reoptimizer = Reoptimizer(db, optimizer=optimizer)
    results = [reoptimizer.reoptimize(query) for query in queries]
    records: List[QueryRunRecord] = []
    for query, result in zip(queries, results):
        original_execution = executor.execute_plan(result.original_plan, query)
        if result.plan_changed:
            final_execution = executor.execute_plan(result.final_plan, query)
        else:
            final_execution = original_execution

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
                original_simulated_cost=original_execution.simulated_cost,
                reoptimized_simulated_cost=final_execution.simulated_cost,
                original_wall_seconds=original_execution.wall_seconds,
                reoptimized_wall_seconds=final_execution.wall_seconds,
                original_work_rows=work_rows(original_execution),
                reoptimized_work_rows=work_rows(final_execution),
                contradicted_joins=contradicted_joins(final_execution, result.gamma),
                plans_generated=result.report.num_plans_generated,
                plan_changed=result.plan_changed,
                reoptimization_seconds=result.reoptimization_seconds,
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
    db: Database, base_settings: Optional[OptimizerSettings] = None
) -> OptimizerSettings:
    """Return optimizer settings whose cost units were calibrated on ``db``.

    This is the paper's "with calibration" configuration: the five cost units
    are replaced by values fitted so that estimated costs are commensurate
    with observed execution effort on this machine.
    """
    base = base_settings if base_settings is not None else OptimizerSettings()
    return replace(base, cost_units=calibrate_cost_units(db).units)
