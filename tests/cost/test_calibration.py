"""Unit tests for the cost-unit calibration (Section 5.1.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.calibration import (
    CalibrationObservation,
    calibrate_cost_units,
    fit_cost_units,
)
from repro.cost.model import ResourceVector
from repro.cost.units import DEFAULT_COST_UNITS, CostUnits
from repro.errors import CalibrationError


def _observation(resources: ResourceVector, units: CostUnits, label="obs"):
    """An observation whose 'measured' time is exactly resources · units."""
    elapsed = float(resources.as_array() @ np.array(list(units.as_dict().values())))
    return CalibrationObservation(resources=resources, elapsed_seconds=elapsed, label=label)


def _synthetic_observations(units: CostUnits):
    """Six linearly independent resource vectors priced under ``units``."""
    vectors = [
        ResourceVector(seq_pages=100.0),
        ResourceVector(random_pages=40.0),
        ResourceVector(tuples=10_000.0),
        ResourceVector(index_tuples=5_000.0),
        ResourceVector(operator_evals=20_000.0),
        ResourceVector(
            seq_pages=10.0, random_pages=4.0, tuples=1_000.0,
            index_tuples=500.0, operator_evals=2_000.0,
        ),
    ]
    return [_observation(v, units, label=f"obs{i}") for i, v in enumerate(vectors)]


class TestFitCostUnits:
    def test_recovers_the_generating_units(self):
        truth = CostUnits(
            seq_page_cost=2e-4, random_page_cost=8e-4, cpu_tuple_cost=1e-6,
            cpu_index_tuple_cost=5e-7, cpu_operator_cost=2.5e-7,
        )
        result = fit_cost_units(_synthetic_observations(truth))
        fitted = result.units.as_dict()
        for name, value in truth.as_dict().items():
            assert fitted[name] == pytest.approx(value, rel=1e-6), name
        assert result.residual_norm == pytest.approx(0.0, abs=1e-9)
        assert result.num_observations == 6

    def test_requires_five_observations(self):
        observations = _synthetic_observations(DEFAULT_COST_UNITS)[:4]
        with pytest.raises(CalibrationError, match="at least 5"):
            fit_cost_units(observations)

    def test_rejects_non_finite_observations(self):
        observations = _synthetic_observations(DEFAULT_COST_UNITS)
        observations[0] = CalibrationObservation(
            resources=ResourceVector(seq_pages=float("nan")), elapsed_seconds=1.0
        )
        with pytest.raises(CalibrationError, match="non-finite"):
            fit_cost_units(observations)

    def test_zero_units_are_floored(self):
        """A unit NNLS drives to exactly zero is floored — zero-cost
        operations produce pathological plans."""
        # Every observation involves only sequential pages, so the other
        # four units are unidentifiable and NNLS returns 0 for them.
        observations = [
            _observation(ResourceVector(seq_pages=float(10 + i)), DEFAULT_COST_UNITS)
            for i in range(6)
        ]
        result = fit_cost_units(observations)
        for name, value in result.units.as_dict().items():
            assert value > 0.0, name


class TestCalibrateAgainstExecutor:
    def test_calibrated_units_differ_from_defaults(self, ott_db):
        result = calibrate_cost_units(ott_db)
        assert result.num_observations >= 5
        fitted = result.units.as_dict()
        defaults = DEFAULT_COST_UNITS.as_dict()
        # The defaults are PostgreSQL's abstract units; fitted values are in
        # seconds-per-operation on this machine — different by construction.
        assert fitted != defaults
        assert all(value > 0.0 for value in fitted.values())

    def test_repetitions_average_timings(self, ott_db):
        result = calibrate_cost_units(ott_db, repetitions=2)
        assert result.num_observations >= 5
        assert all(obs.elapsed_seconds >= 0.0 for obs in result.observations)
