"""The sampling-based query re-optimization loop (Algorithm 1), its reports,
the concurrent workload driver, and mid-execution adaptive re-optimization."""

from __future__ import annotations

from repro.reopt.adaptive import (
    AdaptiveExecutionResult,
    AdaptiveExecutor,
    AdaptiveSettings,
    CheckpointRecord,
    deviation_factor,
    execute_adaptively,
)
from repro.reopt.algorithm import (
    ReoptimizationResult,
    ReoptimizationSettings,
    Reoptimizer,
    reoptimize,
)
from repro.reopt.driver import (
    DriverSettings,
    DriverStats,
    WorkloadDriver,
    plan_fingerprint,
    statistics_fingerprint,
)
from repro.reopt.report import ReoptimizationReport, RoundRecord

__all__ = [
    "AdaptiveExecutionResult",
    "AdaptiveExecutor",
    "AdaptiveSettings",
    "CheckpointRecord",
    "DriverSettings",
    "DriverStats",
    "deviation_factor",
    "execute_adaptively",
    "ReoptimizationReport",
    "ReoptimizationResult",
    "ReoptimizationSettings",
    "Reoptimizer",
    "RoundRecord",
    "WorkloadDriver",
    "plan_fingerprint",
    "reoptimize",
    "statistics_fingerprint",
]
