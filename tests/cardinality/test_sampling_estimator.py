"""Tests for the Haas et al. sampling-based estimator."""

import numpy as np
import pytest

from repro.cardinality.sampling_estimator import SamplingEstimator
from repro.errors import SamplingError
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.plans.nodes import JoinMethod, JoinNode
from repro.storage.catalog import Database
from repro.workloads.ott import generate_ott_database, make_ott_query
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import TPCH_QUERY_NUMBERS, make_tpch_query

ORDER = ["r1", "r2", "r3", "r4"]
METHODS = [JoinMethod.HASH_JOIN]


@pytest.fixture(scope="module")
def db():
    # Seed picked for a representative (not lucky, not pathological) sample
    # draw under the per-table (seed, name)-derived sampling seeds.
    return generate_ott_database(
        num_tables=4, rows_per_table=3000, rows_per_value=50, seed=11, sampling_ratio=0.2
    )


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch_database(scale_factor=0.002, seed=3, sampling_ratio=0.2)


def sample_database(db):
    """A database whose tables are ``db``'s samples under the base names."""
    samples = Database(f"{db.name}_samples")
    for name in db.table_names():
        sample = db.samples.sample_for(name)
        samples.create_table(sample.take(np.arange(sample.num_rows), name=name))
        for column in db.indexed_columns(name):
            samples.create_index(name, column)
    return samples


def scaled(db, query, join_set, observed):
    """``observed`` scaled up by each member's ``|R| / |Rs|``."""
    scale = 1.0
    for alias in sorted(join_set):
        scale *= db.samples.scale_factor(query.table_for_alias(alias))
    return observed * scale


def bushy_plan(query, left_deep_plan):
    """``(r1 ⋈ r2) ⋈ (r3 ⋈ r4)``."""
    left = left_deep_plan(query, ["r1", "r2"], METHODS)
    right = left_deep_plan(query, ["r3", "r4"], METHODS)
    return JoinNode(
        left=left,
        right=right,
        predicates=tuple(query.join_predicates_between(left.relations, right.relations)),
    )


class TestSamplingEstimates:
    def test_requires_samples(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        bare = generate_ott_database(
            num_tables=2, rows_per_table=100, seed=1, create_samples=False
        )
        with pytest.raises(SamplingError):
            SamplingEstimator(bare, make_ott_query(bare, [0, 0]))
        # With samples present, construction succeeds.
        SamplingEstimator(db, query)

    def test_detects_empty_join(self, db, left_deep_plan):
        query = make_ott_query(db, [0, 1, 0, 0])
        plan = left_deep_plan(query, ORDER, METHODS)
        validation = SamplingEstimator(db, query).validate_plan(plan)
        assert validation.cardinalities[frozenset({"r1", "r2"})] == 0.0

    def test_nonempty_join_estimate_close_to_truth(self, db, left_deep_plan):
        query = make_ott_query(db, [0, 0, 0, 0])
        plan = left_deep_plan(query, ORDER, METHODS)
        validation = SamplingEstimator(db, query).validate_plan(plan)
        # B = A in the OTT data, so the true pair-join cardinality is the
        # product of the two selection counts.
        r1_selected = int((db.table("r1").column("a") == 0).sum())
        r2_selected = int((db.table("r2").column("a") == 0).sum())
        pair_actual = r1_selected * r2_selected
        pair_estimate = validation.cardinalities[frozenset({"r1", "r2"})]
        assert pair_estimate == pytest.approx(pair_actual, rel=0.6)


class TestValidatePlan:
    def test_validates_join_nodes_only(self, db):
        query = make_ott_query(db, [0, 0, 0, 1])
        plan = Optimizer(db).optimize(query)
        validation = SamplingEstimator(db, query).validate_plan(plan)
        assert set(validation.cardinalities) == {
            frozenset(node.relations) for node in plan.join_nodes()
        }
        assert validation.joins_validated == len(plan.join_nodes())
        assert validation.elapsed_seconds >= 0.0

    def test_full_query_join_set_is_validated(self, db):
        query = make_ott_query(db, [0, 0, 0, 1])
        plan = Optimizer(db).optimize(query)
        validation = SamplingEstimator(db, query).validate_plan(plan)
        full_set = frozenset({"r1", "r2", "r3", "r4"})
        assert full_set in validation.cardinalities
        # The query is empty (constants differ), and sampling sees that.
        assert validation.cardinalities[full_set] == 0.0

    def test_no_sample_support_skips_validation(self, db):
        """A join set with an empty factor sample must not be 'validated'.

        An unlucky draw that misses every row of one relation's selection
        would otherwise poison Γ with spurious empty joins and steer the
        optimizer into catastrophic plans it believes are free.
        """
        query = make_ott_query(db, [0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        estimator = SamplingEstimator(db, query)
        # Simulate the unlucky draw: make r2's filtered sample empty.
        filtered = estimator._filtered_sample("r2")
        estimator._filtered_cache["r2"] = filtered.take(np.empty(0, dtype=np.int64))
        assert not estimator.has_sample_support({"r1", "r2"})
        validation = estimator.validate_plan(plan)
        assert validation.joins_skipped_no_support >= 1
        assert all(
            "r2" not in join_set for join_set in validation.cardinalities
        )
        # Join sets with full support are still validated.
        supported = [s for s in validation.cardinalities if "r2" not in s]
        assert validation.joins_validated == len(supported)


class TestSampleOracle:
    """The validator's counts against the executor run over the samples.

    A database whose tables *are* the samples turns the executor into an
    independent oracle: it has its own join-method dispatch, index probes and
    live-column pruning, and its ``actual_rows`` of a join node is the
    sample join count the validator must scale up.
    """

    def check(self, db, query, plan):
        actual = Executor(sample_database(db)).execute_plan(plan, query).actual_cardinalities()
        validation = SamplingEstimator(db, query).validate_plan(plan)
        join_sets = [frozenset(node.relations) for node in plan.join_nodes()]
        for join_set in join_sets:
            if join_set in validation.cardinalities:
                assert validation.cardinalities[join_set] == scaled(
                    db, query, join_set, actual[join_set]
                ), sorted(join_set)
        assert len(validation.cardinalities) + validation.joins_skipped_no_support == len(
            join_sets
        )
        return len(validation.cardinalities)

    @pytest.mark.parametrize(
        "constants", [[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [2, 2, 3, 3], [5, 5, 5, 5]]
    )
    def test_ott_counts_match_the_sample_database(self, db, constants):
        query = make_ott_query(db, constants)
        assert self.check(db, query, Optimizer(db).optimize(query)) >= 1

    def test_bushy_ott_counts_match_the_sample_database(self, db, left_deep_plan):
        query = make_ott_query(db, [0, 0, 0, 0])
        assert self.check(db, query, bushy_plan(query, left_deep_plan)) == 3

    def test_tpch_counts_match_the_sample_database(self, tpch_db):
        validated = 0
        for number in TPCH_QUERY_NUMBERS:
            query = make_tpch_query(tpch_db, number, seed=number)
            validated += self.check(tpch_db, query, Optimizer(tpch_db).optimize(query))
        assert validated >= len(TPCH_QUERY_NUMBERS)


class TestPrefixCache:
    def test_validate_plan_reuses_sub_joins(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        estimator = SamplingEstimator(db, query)
        first = estimator.validate_plan(plan)
        assert first.joins_validated >= 2
        # Every join node beyond the first reads a cached child join.
        assert first.prefix_cache_hits >= first.joins_validated - 1
        assert first.sample_join_row_ops > 0
        # A second round over the same plan does no sample-join work at all,
        # and returns the same Δ.
        second = estimator.validate_plan(plan)
        assert second.sample_join_row_ops == 0
        assert second.cardinalities == first.cardinalities

    def test_bushy_top_join_costs_one_sample_join(self, db, left_deep_plan):
        """With both children validated, the top join of a bushy plan is one
        join of the two cached child relations: ``|L| + |R| + |out|``."""
        query = make_ott_query(db, [0, 0, 0, 0])
        plan = bushy_plan(query, left_deep_plan)
        actual = Executor(sample_database(db)).execute_plan(plan, query).actual_cardinalities()
        estimator = SamplingEstimator(db, query)
        estimator.validate_plan(plan.left)
        estimator.validate_plan(plan.right)
        top = estimator.validate_plan(plan)
        assert top.joins_validated == 3
        assert top.sample_join_row_ops == (
            actual[plan.left.relations] + actual[plan.right.relations] + actual[plan.relations]
        )

    def test_cached_estimates_are_consistent(self, db, left_deep_plan):
        """A join set's estimate does not depend on which plan reached it."""
        query = make_ott_query(db, [0, 0, 0, 0])
        cold = SamplingEstimator(db, query)
        warm = SamplingEstimator(db, query)
        warm.validate_plan(Optimizer(db).optimize(query))
        warm.validate_plan(bushy_plan(query, left_deep_plan))
        for order in (ORDER, ["r4", "r3", "r2", "r1"], ["r2", "r3", "r1", "r4"]):
            plan = left_deep_plan(query, order, METHODS)
            assert cold.validate_plan(plan).cardinalities == warm.validate_plan(
                plan
            ).cardinalities
