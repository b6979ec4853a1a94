"""The five PostgreSQL cost units (Section 5.1.2 of the paper).

PostgreSQL expresses plan costs as a linear combination of five primitive
operations, weighted by the units below.  The paper's calibration experiments
replace the default values with calibrated ones obtained from offline
micro-benchmarks (Wu et al., ICDE 2013 [40]); :mod:`repro.cost.calibration`
reproduces that procedure against our executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable


@dataclass(frozen=True)
class CostUnits:
    """Weights of the five primitive operations in the cost model."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025

    def __post_init__(self) -> None:
        # The join search's cutoff (optimizer/dp.py) needs every term >= 0.
        for name, value in self.as_dict().items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"cost unit {name} must be finite and non-negative, got {value!r}"
                )

    def as_dict(self) -> Dict[str, float]:
        """Return the units as an ordered mapping (calibration uses this order)."""
        return {
            "seq_page_cost": self.seq_page_cost,
            "random_page_cost": self.random_page_cost,
            "cpu_tuple_cost": self.cpu_tuple_cost,
            "cpu_index_tuple_cost": self.cpu_index_tuple_cost,
            "cpu_operator_cost": self.cpu_operator_cost,
        }

    @classmethod
    def from_vector(cls, vector: Iterable[float]) -> "CostUnits":
        """Build units from a 5-vector in ``as_dict`` order."""
        names = list(cls().as_dict())
        values = {name: float(value) for name, value in zip(names, vector)}
        return cls(**values)


#: PostgreSQL's default cost units.
DEFAULT_COST_UNITS = CostUnits()
