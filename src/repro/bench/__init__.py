"""The paper scorecard (:mod:`repro.bench.experiments`), its harness and the load generator."""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.bench.harness import QueryRunRecord, run_query_suite, calibrated_settings

__all__ = [
    "ExperimentResult",
    "QueryRunRecord",
    "calibrated_settings",
    "run_query_suite",
]
