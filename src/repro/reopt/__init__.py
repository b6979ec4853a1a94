"""The sampling-based query re-optimization loop (Algorithm 1) and its
reports."""

from __future__ import annotations

from repro.reopt.algorithm import (
    ReoptimizationResult,
    ReoptimizationSettings,
    Reoptimizer,
    reoptimize,
)
from repro.reopt.report import ReoptimizationReport, RoundRecord

__all__ = [
    "ReoptimizationReport",
    "ReoptimizationResult",
    "ReoptimizationSettings",
    "Reoptimizer",
    "RoundRecord",
    "reoptimize",
]
