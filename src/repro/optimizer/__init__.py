"""Query optimizer: DP join-order search and optimizer profiles."""

from __future__ import annotations

from repro.optimizer.optimizer import Optimizer, OptimizerSettings
from repro.optimizer.profiles import OPTIMIZER_PROFILES, profile_settings

__all__ = [
    "OPTIMIZER_PROFILES",
    "Optimizer",
    "OptimizerSettings",
    "profile_settings",
]
