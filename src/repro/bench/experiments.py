"""One driver per figure of the paper's evaluation.

Each function builds the workload at a laptop-scale configuration, runs the
shared harness and returns an :class:`repro.bench.reporting.ExperimentResult`
whose rows correspond to the bars/points of the figure.  The benchmark files
under ``benchmarks/`` call these drivers (once each) and print the tables;
EXPERIMENTS.md records a snapshot of the output next to the paper's numbers.

Scale disclaimer (also in DESIGN.md): the databases are MB-scale instead of
10 GB and "running time" is primarily the deterministic simulated cost (cost
model at true cardinalities), with wall-clock seconds reported alongside.
Sampling ratios are raised so that absolute sample sizes are statistically
comparable to 5% of a 10 GB database.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import (
    QueryRunRecord,
    aggregate_by_template,
    calibrated_settings,
    mean,
    run_query_suite,
)
from repro.bench.reporting import ExperimentResult
from repro.optimizer.profiles import profile_settings
from repro.optimizer.settings import OptimizerSettings
from repro.stats.multidim import MultiDimHistogram, true_ott_pair_selectivity
from repro.theory.ball_queue import expected_steps
from repro.theory.special_cases import (
    overestimation_only_bound,
    underestimation_only_expected_steps,
)
from repro.workloads.ott import generate_ott_database, make_ott_workload
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_workload
from repro.workloads.tpcds import generate_tpcds_database, make_tpcds_workload

#: Default laptop-scale knobs for the TPC-H experiments.
TPCH_SCALE_FACTOR = 0.004
TPCH_SAMPLING_RATIO = 0.5
#: Default laptop-scale knobs for the OTT experiments.
OTT_4JOIN_TABLES = 5
OTT_5JOIN_TABLES = 6
OTT_ROWS_PER_TABLE = 4000
OTT_4JOIN_ROWS_PER_VALUE = 50
OTT_5JOIN_ROWS_PER_VALUE = 25
#: 0.25 keeps the per-value sample count around the same handful of rows the
#: paper's 5% sample of a 10 GB database yields (see DESIGN.md substitutions).
OTT_SAMPLING_RATIO = 0.25
#: Default laptop-scale knobs for the TPC-DS experiments.
TPCDS_SCALE = 0.15
TPCDS_SAMPLING_RATIO = 0.5


# --------------------------------------------------------------------------- #
# Figure 3 — S_N versus N
# --------------------------------------------------------------------------- #
def figure3_sn_curve(max_n: int = 1000, step: int = 50) -> ExperimentResult:
    """Figure 3: the expected number of steps S_N against sqrt(N) and 2*sqrt(N)."""
    result = ExperimentResult(
        experiment="figure3",
        description="S_N versus N (Equation 1) compared with sqrt(N) envelopes",
        columns=["N", "S_N", "sqrt(N)", "2*sqrt(N)"],
    )
    points = list(range(1, max_n + 1, step))
    if points[-1] != max_n:
        points.append(max_n)
    for n in points:
        result.add_row(
            **{
                "N": n,
                "S_N": expected_steps(n),
                "sqrt(N)": float(np.sqrt(n)),
                "2*sqrt(N)": 2.0 * float(np.sqrt(n)),
            }
        )
    return result


# --------------------------------------------------------------------------- #
# TPC-H experiments (Figures 4-9 and 14)
# --------------------------------------------------------------------------- #
def _tpch_records(
    zipf_z: float,
    calibrated: bool,
    scale_factor: float = TPCH_SCALE_FACTOR,
    sampling_ratio: float = TPCH_SAMPLING_RATIO,
    instances_per_query: int = 1,
    seed: int = 1,
    execute_intermediate_plans: bool = False,
    query_numbers: Optional[Sequence[int]] = None,
) -> Dict[str, List[QueryRunRecord]]:
    db = generate_tpch_database(
        scale_factor=scale_factor, zipf_z=zipf_z, seed=seed, sampling_ratio=sampling_ratio
    )
    settings = OptimizerSettings()
    if calibrated:
        settings = calibrated_settings(db, settings)
    workload = make_tpch_workload(
        db, numbers=list(query_numbers) if query_numbers else None,
        instances_per_query=instances_per_query, seed=seed,
    )
    queries = [query for instances in workload.values() for query in instances]
    records = run_query_suite(
        db,
        queries,
        optimizer_settings=settings,
        execute_intermediate_plans=execute_intermediate_plans,
    )
    return aggregate_by_template(records)


def figure4_7_tpch_running_time(
    zipf_z: float = 0.0,
    calibrated: bool = False,
    **kwargs: Any,
) -> ExperimentResult:
    """Figures 4 (z=0) and 7 (z=1): original vs re-optimized running time per query."""
    grouped = _tpch_records(zipf_z=zipf_z, calibrated=calibrated, **kwargs)
    figure = "figure4" if zipf_z == 0.0 else "figure7"
    result = ExperimentResult(
        experiment=f"{figure}{'b' if calibrated else 'a'}",
        description=(
            f"TPC-H z={zipf_z} running time, original vs re-optimized plan "
            f"({'with' if calibrated else 'without'} calibration)"
        ),
        columns=[
            "query", "original_sim_cost", "reoptimized_sim_cost",
            "original_wall_s", "reoptimized_wall_s", "plan_changed",
        ],
    )
    for template in sorted(grouped, key=lambda name: int(name[1:])):
        records = grouped[template]
        result.add_row(
            query=template,
            original_sim_cost=mean(r.original_simulated_cost for r in records),
            reoptimized_sim_cost=mean(r.reoptimized_simulated_cost for r in records),
            original_wall_s=mean(r.original_wall_seconds for r in records),
            reoptimized_wall_s=mean(r.reoptimized_wall_seconds for r in records),
            plan_changed=any(r.plan_changed for r in records),
        )
    return result


def figure5_8_tpch_num_plans(zipf_z: float = 0.0, **kwargs: Any) -> ExperimentResult:
    """Figures 5 (z=0) and 8 (z=1): number of plans generated during re-optimization."""
    figure = "figure5" if zipf_z == 0.0 else "figure8"
    result = ExperimentResult(
        experiment=figure,
        description=f"TPC-H z={zipf_z}: plans generated during re-optimization",
        columns=["query", "plans_without_calibration", "plans_with_calibration"],
    )
    without = _tpch_records(zipf_z=zipf_z, calibrated=False, **kwargs)
    with_cal = _tpch_records(zipf_z=zipf_z, calibrated=True, **kwargs)
    for template in sorted(without, key=lambda name: int(name[1:])):
        result.add_row(
            query=template,
            plans_without_calibration=mean(r.plans_generated for r in without[template]),
            plans_with_calibration=mean(r.plans_generated for r in with_cal.get(template, [])),
        )
    return result


def figure6_9_tpch_overhead(
    zipf_z: float = 0.0, calibrated: bool = False, **kwargs: Any
) -> ExperimentResult:
    """Figures 6 (z=0) and 9 (z=1): running time excluding vs including re-optimization."""
    grouped = _tpch_records(zipf_z=zipf_z, calibrated=calibrated, **kwargs)
    figure = "figure6" if zipf_z == 0.0 else "figure9"
    result = ExperimentResult(
        experiment=f"{figure}{'b' if calibrated else 'a'}",
        description=(
            f"TPC-H z={zipf_z}: execution only vs re-optimization + execution "
            f"({'with' if calibrated else 'without'} calibration)"
        ),
        columns=["query", "execution_only_s", "reopt_plus_execution_s", "reopt_overhead_s"],
    )
    for template in sorted(grouped, key=lambda name: int(name[1:])):
        records = grouped[template]
        execution_only = mean(r.reoptimized_wall_seconds for r in records)
        overhead = mean(r.reoptimization_seconds for r in records)
        result.add_row(
            query=template,
            execution_only_s=execution_only,
            reopt_plus_execution_s=execution_only + overhead,
            reopt_overhead_s=overhead,
        )
    return result


def figure14_tpch_rounds(
    query_numbers: Sequence[int] = (8, 9, 21), zipf_z: float = 0.0, **kwargs: Any
) -> ExperimentResult:
    """Figure 14: running time of the plan produced in each re-optimization round."""
    grouped = _tpch_records(
        zipf_z=zipf_z, calibrated=False, execute_intermediate_plans=True,
        query_numbers=query_numbers, **kwargs,
    )
    result = ExperimentResult(
        experiment="figure14",
        description="TPC-H: per-round plan simulated cost during re-optimization",
        columns=["query", "round", "simulated_cost"],
    )
    for template in sorted(grouped, key=lambda name: int(name[1:])):
        for record in grouped[template]:
            for round_index, cost in enumerate(record.per_round_simulated_cost, start=1):
                result.add_row(query=template, round=round_index, simulated_cost=cost)
    return result


# --------------------------------------------------------------------------- #
# OTT experiments (Figures 10-13 and 15-18)
# --------------------------------------------------------------------------- #
def _ott_records(
    num_tables: int,
    num_queries: int,
    rows_per_value: int,
    calibrated: bool = False,
    profile: str = "postgresql",
    rows_per_table: int = OTT_ROWS_PER_TABLE,
    sampling_ratio: float = OTT_SAMPLING_RATIO,
    seed: int = 7,
    execute_intermediate_plans: bool = False,
) -> List[QueryRunRecord]:
    db = generate_ott_database(
        num_tables=num_tables,
        rows_per_table=rows_per_table,
        rows_per_value=rows_per_value,
        seed=seed,
        sampling_ratio=sampling_ratio,
    )
    settings = profile_settings(profile)
    if calibrated:
        settings = calibrated_settings(db, settings)
    queries = make_ott_workload(
        db, num_tables=num_tables, num_queries=num_queries, num_matching=num_tables - 1, seed=seed
    )
    return run_query_suite(
        db,
        queries,
        optimizer_settings=settings,
        execute_intermediate_plans=execute_intermediate_plans,
    )


def figure10_11_ott_running_time(
    joins: int = 4, calibrated: bool = False, num_queries: int = 10, **kwargs: Any
) -> ExperimentResult:
    """Figures 10 (4-join) and 11 (5-join): OTT original vs re-optimized running time."""
    num_tables = joins + 1
    rows_per_value = OTT_4JOIN_ROWS_PER_VALUE if joins == 4 else OTT_5JOIN_ROWS_PER_VALUE
    records = _ott_records(
        num_tables=num_tables, num_queries=num_queries, rows_per_value=rows_per_value,
        calibrated=calibrated, **kwargs,
    )
    figure = "figure10" if joins == 4 else "figure11"
    result = ExperimentResult(
        experiment=f"{figure}{'b' if calibrated else 'a'}",
        description=(
            f"OTT {joins}-join queries: original vs re-optimized "
            f"({'with' if calibrated else 'without'} calibration)"
        ),
        columns=[
            "query", "original_sim_cost", "reoptimized_sim_cost",
            "original_wall_s", "reoptimized_wall_s", "plans_generated",
        ],
    )
    for record in records:
        result.add_row(
            query=record.query_name,
            original_sim_cost=record.original_simulated_cost,
            reoptimized_sim_cost=record.reoptimized_simulated_cost,
            original_wall_s=record.original_wall_seconds,
            reoptimized_wall_s=record.reoptimized_wall_seconds,
            plans_generated=record.plans_generated,
        )
    return result


def figure12_13_ott_commercial(profile: str = "system_a", joins: int = 4, num_queries: int = 10, **kwargs: Any) -> ExperimentResult:
    """Figures 12/13: OTT original-plan running times under the commercial-system profiles."""
    num_tables = joins + 1
    rows_per_value = OTT_4JOIN_ROWS_PER_VALUE if joins == 4 else OTT_5JOIN_ROWS_PER_VALUE
    records = _ott_records(
        num_tables=num_tables, num_queries=num_queries, rows_per_value=rows_per_value,
        profile=profile, **kwargs,
    )
    figure = "figure12" if profile == "system_a" else "figure13"
    result = ExperimentResult(
        experiment=f"{figure}_{joins}join",
        description=f"OTT {joins}-join original plans under optimizer profile {profile!r}",
        columns=["query", "original_sim_cost", "original_wall_s"],
    )
    for record in records:
        result.add_row(
            query=record.query_name,
            original_sim_cost=record.original_simulated_cost,
            original_wall_s=record.original_wall_seconds,
        )
    return result


def figure15_ott_rounds(joins: int = 4, num_queries: int = 6, **kwargs: Any) -> ExperimentResult:
    """Figure 15: per-round plan cost for OTT queries during re-optimization."""
    num_tables = joins + 1
    rows_per_value = OTT_4JOIN_ROWS_PER_VALUE if joins == 4 else OTT_5JOIN_ROWS_PER_VALUE
    records = _ott_records(
        num_tables=num_tables, num_queries=num_queries, rows_per_value=rows_per_value,
        execute_intermediate_plans=True, **kwargs,
    )
    result = ExperimentResult(
        experiment=f"figure15_{joins}join",
        description=f"OTT {joins}-join: per-round plan simulated cost",
        columns=["query", "round", "simulated_cost"],
    )
    for record in records:
        for round_index, cost in enumerate(record.per_round_simulated_cost, start=1):
            result.add_row(query=record.query_name, round=round_index, simulated_cost=cost)
    return result


def figure16_ott_num_plans(joins: int = 4, num_queries: int = 10, **kwargs: Any) -> ExperimentResult:
    """Figure 16: number of plans generated during re-optimization (OTT)."""
    num_tables = joins + 1
    rows_per_value = OTT_4JOIN_ROWS_PER_VALUE if joins == 4 else OTT_5JOIN_ROWS_PER_VALUE
    without = _ott_records(
        num_tables=num_tables, num_queries=num_queries, rows_per_value=rows_per_value, **kwargs
    )
    result = ExperimentResult(
        experiment=f"figure16_{joins}join",
        description=f"OTT {joins}-join: plans generated during re-optimization",
        columns=["query", "plans_generated", "converged"],
    )
    for record in without:
        result.add_row(
            query=record.query_name,
            plans_generated=record.plans_generated,
            converged=record.converged,
        )
    return result


def figure17_18_ott_overhead(joins: int = 4, num_queries: int = 10, **kwargs: Any) -> ExperimentResult:
    """Figures 17/18: OTT running time excluding vs including re-optimization time."""
    num_tables = joins + 1
    rows_per_value = OTT_4JOIN_ROWS_PER_VALUE if joins == 4 else OTT_5JOIN_ROWS_PER_VALUE
    records = _ott_records(
        num_tables=num_tables, num_queries=num_queries, rows_per_value=rows_per_value, **kwargs
    )
    figure = "figure17" if joins == 4 else "figure18"
    result = ExperimentResult(
        experiment=figure,
        description=f"OTT {joins}-join: execution only vs re-optimization + execution",
        columns=["query", "execution_only_s", "reopt_plus_execution_s", "reopt_overhead_s"],
    )
    for record in records:
        result.add_row(
            query=record.query_name,
            execution_only_s=record.reoptimized_wall_seconds,
            reopt_plus_execution_s=record.total_with_reoptimization,
            reopt_overhead_s=record.reoptimization_seconds,
        )
    return result


# --------------------------------------------------------------------------- #
# TPC-DS experiments (Figures 19-20)
# --------------------------------------------------------------------------- #
def _tpcds_records(
    calibrated: bool = False,
    scale: float = TPCDS_SCALE,
    sampling_ratio: float = TPCDS_SAMPLING_RATIO,
    seed: int = 2,
) -> List[QueryRunRecord]:
    db = generate_tpcds_database(scale=scale, seed=seed, sampling_ratio=sampling_ratio)
    settings = OptimizerSettings()
    if calibrated:
        settings = calibrated_settings(db, settings)
    queries = make_tpcds_workload(db, seed=seed)
    return run_query_suite(db, queries, optimizer_settings=settings)


def figure19_tpcds_running_time(calibrated: bool = False, **kwargs: Any) -> ExperimentResult:
    """Figure 19: TPC-DS original vs re-optimized running time (including Q50')."""
    records = _tpcds_records(calibrated=calibrated, **kwargs)
    result = ExperimentResult(
        experiment=f"figure19{'b' if calibrated else 'a'}",
        description=(
            f"TPC-DS running time, original vs re-optimized "
            f"({'with' if calibrated else 'without'} calibration)"
        ),
        columns=[
            "query", "original_sim_cost", "reoptimized_sim_cost",
            "original_wall_s", "reoptimized_wall_s", "plan_changed",
        ],
    )
    for record in records:
        result.add_row(
            query=record.query_name,
            original_sim_cost=record.original_simulated_cost,
            reoptimized_sim_cost=record.reoptimized_simulated_cost,
            original_wall_s=record.original_wall_seconds,
            reoptimized_wall_s=record.reoptimized_wall_seconds,
            plan_changed=record.plan_changed,
        )
    return result


def figure20_tpcds_num_plans(**kwargs: Any) -> ExperimentResult:
    """Figure 20: number of plans generated during re-optimization (TPC-DS)."""
    without = _tpcds_records(calibrated=False, **kwargs)
    with_cal = _tpcds_records(calibrated=True, **kwargs)
    by_name_cal = {record.query_name: record for record in with_cal}
    result = ExperimentResult(
        experiment="figure20",
        description="TPC-DS: plans generated during re-optimization",
        columns=["query", "plans_without_calibration", "plans_with_calibration"],
    )
    for record in without:
        calibrated_record = by_name_cal.get(record.query_name)
        result.add_row(
            query=record.query_name,
            plans_without_calibration=record.plans_generated,
            plans_with_calibration=(
                calibrated_record.plans_generated if calibrated_record else None
            ),
        )
    return result


# --------------------------------------------------------------------------- #
# Example 2 (Section 5.3.1) and Appendix B
# --------------------------------------------------------------------------- #
def example2_multidimensional_histograms(
    rows: int = 10_000, distinct_values: int = 100, buckets_per_dim: int = 50, seed: int = 5
) -> ExperimentResult:
    """Example 2: 2-D histograms cannot separate empty from non-empty OTT joins."""
    rng = np.random.default_rng(seed)
    r1_a = rng.integers(0, distinct_values, size=rows)
    r2_a = rng.integers(0, distinct_values, size=rows)
    r1_b, r2_b = r1_a.copy(), r2_a.copy()
    hist1 = MultiDimHistogram.build(r1_a, r1_b, buckets_per_dim)
    hist2 = MultiDimHistogram.build(r2_a, r2_b, buckets_per_dim)

    result = ExperimentResult(
        experiment="example2",
        description="2-D histogram estimate vs truth for the empty (q1) and non-empty (q2) OTT pair",
        columns=["query", "estimated_selectivity", "true_selectivity"],
    )
    estimate_q1 = hist1.estimate_ott_pair_selectivity(0, 1, hist2)
    estimate_q2 = hist1.estimate_ott_pair_selectivity(0, 0, hist2)
    result.add_row(
        query="q1 (A1=0, A2=1, empty)",
        estimated_selectivity=estimate_q1,
        true_selectivity=true_ott_pair_selectivity(r1_a, r1_b, r2_a, r2_b, 0, 1),
    )
    result.add_row(
        query="q2 (A1=0, A2=0, non-empty)",
        estimated_selectivity=estimate_q2,
        true_selectivity=true_ott_pair_selectivity(r1_a, r1_b, r2_a, r2_b, 0, 0),
    )
    return result


def appendix_b_bounds(num_queries: int = 10, num_tables: int = 5, **kwargs: Any) -> ExperimentResult:
    """Appendix B: observed OTT round counts against the theoretical bounds."""
    records = _ott_records(
        num_tables=num_tables, num_queries=num_queries,
        rows_per_value=OTT_4JOIN_ROWS_PER_VALUE, **kwargs,
    )
    num_joins = num_tables - 1
    over_bound = overestimation_only_bound(num_joins)
    under_bound = underestimation_only_expected_steps(
        num_join_trees=2 ** num_tables, num_join_graph_edges=num_joins
    )
    result = ExperimentResult(
        experiment="appendix_b",
        description="Observed re-optimization rounds vs the Appendix B special-case bounds",
        columns=["query", "observed_rounds", "overestimation_bound_m_plus_1", "underestimation_S_N_over_M"],
    )
    for record in records:
        result.add_row(
            query=record.query_name,
            observed_rounds=record.plans_generated,
            overestimation_bound_m_plus_1=over_bound,
            underestimation_S_N_over_M=under_bound,
        )
    return result


# --------------------------------------------------------------------------- #
# Incremental re-optimization engine (beyond the paper's figures)
# --------------------------------------------------------------------------- #
def incremental_planning(
    joins: int = 4,
    num_queries: int = 6,
    rows_per_table: int = OTT_ROWS_PER_TABLE,
    sampling_ratio: float = OTT_SAMPLING_RATIO,
    seed: int = 7,
) -> ExperimentResult:
    """Per-round DP work of the incremental planner on the OTT workload.

    Round 1 must expand every mask (``2^K - 1`` for K relations); rounds 2+
    only the Γ-dirtied ones — the planning-time saving Section 3.3's overhead
    argument relies on.
    """
    records = _ott_records(
        num_tables=joins + 1,
        num_queries=num_queries,
        rows_per_value=OTT_4JOIN_ROWS_PER_VALUE,
        rows_per_table=rows_per_table,
        sampling_ratio=sampling_ratio,
        seed=seed,
    )
    result = ExperimentResult(
        experiment="incremental_planning",
        description="DP masks expanded per re-optimization round (round 1 = full search)",
        columns=[
            "query", "rounds", "round1_masks", "max_later_masks",
            "total_later_masks", "round1_planning_s", "later_planning_s",
        ],
    )
    for record in records:
        masks = record.dp_masks_expanded_per_round
        later = masks[1:]
        planning = record.planning_seconds_per_round
        result.add_row(
            query=record.query_name,
            rounds=record.plans_generated,
            round1_masks=masks[0],
            max_later_masks=max(later) if later else 0,
            total_later_masks=sum(later),
            round1_planning_s=planning[0] if planning else 0.0,
            later_planning_s=sum(planning[1:]),
        )
    return result
