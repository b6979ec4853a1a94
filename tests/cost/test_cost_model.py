"""Unit tests for cost units, the cost model and calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.calibration import CalibrationObservation, fit_cost_units
from repro.cost.model import TUPLES_PER_PAGE, CostModel, ResourceVector
from repro.cost.units import CostUnits, DEFAULT_COST_UNITS
from repro.errors import CalibrationError
from repro.plans.nodes import JoinMethod


class TestCostUnits:
    def test_defaults_match_postgresql(self):
        units = DEFAULT_COST_UNITS
        assert units.seq_page_cost == 1.0
        assert units.random_page_cost == 4.0
        assert units.cpu_tuple_cost == 0.01
        assert units.cpu_index_tuple_cost == 0.005
        assert units.cpu_operator_cost == 0.0025

    def test_as_dict_round_trip(self):
        units = CostUnits.from_vector(list(DEFAULT_COST_UNITS.as_dict().values()))
        assert units == DEFAULT_COST_UNITS

    @pytest.mark.parametrize("value", [-1.0, -1e-300, float("inf"), float("nan")])
    def test_negative_or_non_finite_units_are_rejected(self, value):
        """The join search's cutoff is exact only for non-negative costs."""
        with pytest.raises(ValueError, match="cpu_operator_cost"):
            CostUnits(cpu_operator_cost=value)
        with pytest.raises(ValueError, match="random_page_cost"):
            replace(DEFAULT_COST_UNITS, random_page_cost=value)

    def test_zero_units_are_accepted(self):
        assert CostUnits(seq_page_cost=0.0).seq_page_cost == 0.0


class TestResourceVector:
    def test_addition(self):
        total = ResourceVector(seq_pages=1, tuples=10) + ResourceVector(seq_pages=2, operator_evals=5)
        assert total.seq_pages == 3
        assert total.tuples == 10
        assert total.operator_evals == 5

    def test_as_array_order_matches_units(self):
        vector = ResourceVector(1, 2, 3, 4, 5)
        assert list(vector.as_array()) == [1, 2, 3, 4, 5]


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_cost_is_dot_product(self):
        vector = ResourceVector(seq_pages=10, random_pages=1, tuples=100, index_tuples=0, operator_evals=200)
        expected = 10 * 1.0 + 1 * 4.0 + 100 * 0.01 + 200 * 0.0025
        assert self.model.cost(vector) == pytest.approx(expected)

    def test_seq_scan_charges_all_pages_and_tuples(self):
        resources = self.model.seq_scan_resources(table_rows=1000, num_predicates=2, output_rows=10)
        assert resources.seq_pages == 10
        assert resources.tuples == 1000
        assert resources.operator_evals == pytest.approx(2 * 1000 + 10)

    def test_pages_round_up_and_are_at_least_one(self):
        assert self.model.seq_scan_resources(250, 0, 0).seq_pages == 3
        assert self.model.seq_scan_resources(0, 0, 0).seq_pages == 1

    def test_a_page_holds_tuples_per_page_rows(self):
        """One page size for every table; the golden plans are priced at 100."""
        assert TUPLES_PER_PAGE == 100
        full = 7 * TUPLES_PER_PAGE
        assert self.model.seq_scan_resources(full, 0, 0).seq_pages == 7
        assert self.model.seq_scan_resources(full + 1, 0, 0).seq_pages == 8
        assert self.model.index_scan_resources(full, 10 * full, 0, 0).random_pages == 7

    def test_index_scan_cheaper_than_seq_scan_for_selective_predicates(self):
        seq = self.model.seq_scan_resources(100_000, 1, 10)
        index = self.model.index_scan_resources(100_000, 10, 0, 10)
        assert self.model.cost(index) < self.model.cost(seq)

    def test_index_scan_pages_capped_by_table_pages(self):
        resources = self.model.index_scan_resources(1000, 5000, 0, 5000)
        assert resources.random_pages <= 10

    def test_hash_join_linear_in_inputs(self):
        small = self.model.join_resources(JoinMethod.HASH_JOIN, 100, 100, 10)
        big = self.model.join_resources(JoinMethod.HASH_JOIN, 10_000, 10_000, 10)
        assert self.model.cost(big) > self.model.cost(small)

    def test_nested_loop_quadratic_blowup(self):
        hash_join = self.model.join_resources(JoinMethod.HASH_JOIN, 10_000, 10_000, 100)
        nested = self.model.join_resources(JoinMethod.NESTED_LOOP, 10_000, 10_000, 100)
        assert self.model.cost(nested) > 100 * self.model.cost(hash_join)

    def test_merge_join_includes_sort_cost(self):
        merge = self.model.join_resources(JoinMethod.MERGE_JOIN, 1000, 1000, 100)
        hash_join = self.model.join_resources(JoinMethod.HASH_JOIN, 1000, 1000, 100)
        assert merge.operator_evals > hash_join.operator_evals

    def test_index_nested_loop_charges_random_pages_per_output_row(self):
        resources = self.model.join_resources(
            JoinMethod.INDEX_NESTED_LOOP, 100, 10_000, 500, inner_table_rows=10_000
        )
        assert resources.random_pages == 500
        assert resources.index_tuples == 500

    def test_join_dispatch_all_methods(self):
        for method in JoinMethod:
            resources = self.model.join_resources(method, 100, 100, 50, inner_table_rows=1000)
            assert self.model.cost(resources) > 0

    def test_aggregate_resources(self):
        resources = self.model.aggregate_resources(1000, 10)
        assert resources.operator_evals == 1000
        assert resources.tuples == 10

    def test_units_change_pricing_not_formulas(self):
        expensive = CostModel(
            CostUnits.from_vector(100 * value for value in DEFAULT_COST_UNITS.as_dict().values())
        )
        vector = ResourceVector(seq_pages=10, tuples=100)
        assert expensive.cost(vector) == pytest.approx(100 * self.model.cost(vector))

    @given(
        outer=st.floats(min_value=0, max_value=1e6),
        inner=st.floats(min_value=0, max_value=1e6),
        output=st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_join_costs_are_nonnegative_and_finite(self, outer, inner, output):
        for method in JoinMethod:
            cost = self.model.cost(
                self.model.join_resources(method, outer, inner, output, inner_table_rows=inner)
            )
            assert np.isfinite(cost)
            assert cost >= 0

    @given(
        rows=st.tuples(*[
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e12]),
                st.floats(min_value=0, max_value=1e12),
            )
        ] * 3),
        inner_table_rows=st.one_of(st.just(0.0), st.floats(min_value=0, max_value=1e12)),
        input_cost=st.one_of(st.just(0.0), st.floats(min_value=0, max_value=1e12)),
        units=st.tuples(*[st.floats(min_value=1e-6, max_value=1e3)] * 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_join_pricing_is_the_cost_of_join_resources_bit_for_bit(
        self, rows, inner_table_rows, input_cost, units
    ):
        """The planners price splits with ``JoinPricing``; the executor and
        the sampled-cost check keep ``join_resources`` — the two must be one
        formula, down to the float bits plan tie-breaks rest on."""
        outer_rows, inner_rows, output_rows = rows
        for model in (self.model, CostModel(units=CostUnits.from_vector(list(units)))):
            for method in JoinMethod:
                resources = model.join_resources(method, *rows, inner_table_rows=inner_table_rows)
                priced = model.join_pricing((method,), output_rows).cheapest(
                    input_cost, outer_rows, inner_rows, True, inner_table_rows, math.inf
                )
                assert priced == (input_cost + model.cost(resources), method)

    def test_join_pricing_returns_none_when_nothing_beats_the_bound(self):
        pricing = self.model.join_pricing(sorted(JoinMethod, key=lambda m: m.value), 50.0)
        cheapest = pricing.cheapest(10.0, 100.0, 100.0, True, 1000.0, math.inf)
        assert cheapest is not None
        # Strictly below: a bound equal to the cheapest cost is not beaten.
        assert pricing.cheapest(10.0, 100.0, 100.0, True, 1000.0, cheapest[0]) is None
        assert pricing.cheapest(10.0, 100.0, 100.0, True, 1000.0, 10.0) is None
        # No predicate crosses the split and nested loop is not enabled.
        hash_only = self.model.join_pricing((JoinMethod.HASH_JOIN,), 50.0)
        assert hash_only.cheapest(10.0, 100.0, 100.0, False, None, math.inf) is None

    def test_join_pricing_keeps_the_earlier_method_on_an_exact_tie(self):
        """3 × 3 rows: hash evaluates 2·3 + 3 operators, nested loop 3 · 3."""
        methods = (JoinMethod.HASH_JOIN, JoinMethod.NESTED_LOOP)
        costs = [
            self.model.join_pricing((method,), 9.0).cheapest(1.0, 3.0, 3.0, True, None, math.inf)[0]
            for method in methods
        ]
        assert costs[0] == costs[1]
        pricing = self.model.join_pricing(methods, 9.0)
        assert pricing.cheapest(1.0, 3.0, 3.0, True, None, math.inf) == (
            costs[0], JoinMethod.HASH_JOIN
        )

    @given(rows=st.floats(min_value=0, max_value=1e7))
    @settings(max_examples=50, deadline=None)
    def test_seq_scan_cost_monotone_in_rows(self, rows):
        smaller = self.model.cost(self.model.seq_scan_resources(rows, 1, rows / 2))
        larger = self.model.cost(self.model.seq_scan_resources(rows * 2 + 1, 1, rows))
        assert larger >= smaller


class TestCalibration:
    def test_requires_enough_observations(self):
        with pytest.raises(CalibrationError):
            fit_cost_units([CalibrationObservation(ResourceVector(seq_pages=1), 0.1)])

    def test_recovers_synthetic_units(self, make_rng):
        rng = make_rng()
        true_units = np.array([2e-3, 8e-3, 1e-5, 5e-6, 2e-6])
        observations = []
        for _ in range(50):
            vector = ResourceVector(*rng.uniform(0, 1000, size=5))
            seconds = float(vector.as_array() @ true_units)
            observations.append(CalibrationObservation(vector, seconds))
        result = fit_cost_units(observations)
        fitted = np.array(list(result.units.as_dict().values()))
        assert np.allclose(fitted, true_units, rtol=0.05)
        assert len(result.observations) == 50

    def test_rejects_non_finite_observations(self):
        observations = [
            CalibrationObservation(ResourceVector(seq_pages=float("nan")), 0.1) for _ in range(5)
        ]
        with pytest.raises(CalibrationError):
            fit_cost_units(observations)

    def test_units_never_exactly_zero(self, make_rng):
        rng = make_rng(1)
        observations = []
        for _ in range(20):
            # Only sequential pages matter in this synthetic workload.
            pages = rng.uniform(1, 100)
            observations.append(
                CalibrationObservation(ResourceVector(seq_pages=pages), pages * 1e-3)
            )
        result = fit_cost_units(observations)
        for value in result.units.as_dict().values():
            assert value > 0
