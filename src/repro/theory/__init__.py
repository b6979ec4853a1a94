"""Theoretical model of the re-optimization loop (Section 3 and Appendix B)."""

from __future__ import annotations

from repro.theory.ball_queue import expected_steps, simulate_procedure1
from repro.theory.special_cases import (
    overestimation_only_bound,
    underestimation_only_expected_steps,
)

__all__ = [
    "expected_steps",
    "overestimation_only_bound",
    "simulate_procedure1",
    "underestimation_only_expected_steps",
]
