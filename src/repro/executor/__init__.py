"""Vectorised query executor with cardinality and cost instrumentation."""

from __future__ import annotations

from repro.executor.executor import ExecutionResult, Executor, live_columns
from repro.executor.materialization import (
    canonical_row_order,
    canonicalize_relation,
    needs_canonical_order,
)

__all__ = [
    "ExecutionResult",
    "Executor",
    "canonical_row_order",
    "canonicalize_relation",
    "live_columns",
    "needs_canonical_order",
]
