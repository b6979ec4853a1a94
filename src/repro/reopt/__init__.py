"""The sampling-based query re-optimization loop (Algorithm 1), its reports,
and mid-execution adaptive re-optimization."""

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
from repro.reopt.report import ReoptimizationReport, RoundRecord

__all__ = [
    "AdaptiveExecutionResult",
    "AdaptiveExecutor",
    "AdaptiveSettings",
    "CheckpointRecord",
    "deviation_factor",
    "execute_adaptively",
    "ReoptimizationReport",
    "ReoptimizationResult",
    "ReoptimizationSettings",
    "Reoptimizer",
    "RoundRecord",
    "reoptimize",
]
