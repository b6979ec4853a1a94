"""The intermediate registry, MaterializedNode execution and canonical order."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.executor.executor import Executor
from repro.executor.materialization import (
    IntermediateRegistry,
    canonical_row_order,
    canonicalize_relation,
)
from repro.optimizer.optimizer import Optimizer
from repro.plans.nodes import MaterializedNode
from repro.relalg import Relation
from repro.sql.builder import QueryBuilder
from repro.sql.parser import parse_query


class TestIntermediateRegistry:
    def test_store_and_fetch(self):
        registry = IntermediateRegistry()
        relation = Relation({"a.x": np.array([1, 2, 3])})
        entry = registry.store({"a"}, relation, source_signature=("scan",))
        assert entry.actual_rows == 3
        assert {"a"} in registry
        assert registry.get({"a"}).relation is relation
        assert registry.relation({"a"}) is relation
        assert registry.get({"a"}).reuse_count == 1
        assert registry.total_reuses() == 1
        assert registry.cardinalities() == {frozenset({"a"}): 3}

    def test_missing_join_set_raises(self):
        registry = IntermediateRegistry()
        with pytest.raises(KeyError):
            registry.relation({"a", "b"})
        with pytest.raises(ValueError):
            registry.store([], Relation())

    def test_join_sets_ordered_largest_first(self):
        registry = IntermediateRegistry()
        registry.store({"a"}, Relation(num_rows=1))
        registry.store({"a", "b", "c"}, Relation(num_rows=2))
        registry.store({"a", "b"}, Relation(num_rows=3))
        assert [len(key) for key in registry.join_sets()] == [3, 2, 1]
        assert registry.total_rows() == 6


class TestCanonicalOrder:
    def test_sorts_rows_lexicographically_by_all_columns(self):
        relation = Relation(
            {"t.a": np.array([2, 1, 2, 1]), "t.b": np.array([0, 5, -1, 4])}
        )
        ordered = canonicalize_relation(relation)
        assert ordered["t.a"].tolist() == [1, 1, 2, 2]
        assert ordered["t.b"].tolist() == [4, 5, -1, 0]

    def test_result_is_a_pure_function_of_the_row_multiset(self, make_rng):
        rng = make_rng()
        base = Relation(
            {"t.a": rng.integers(0, 5, size=50), "t.b": rng.uniform(size=50)}
        )
        shuffled = base.take(rng.permutation(50))
        a, b = canonicalize_relation(base), canonicalize_relation(shuffled)
        assert np.array_equal(a["t.a"], b["t.a"])
        assert np.array_equal(a["t.b"], b["t.b"])

    def test_degenerate_relations_pass_through(self):
        empty = Relation()
        assert canonical_row_order(empty) is None
        assert canonicalize_relation(empty) is empty
        single = Relation({"t.a": np.array([1])})
        assert canonical_row_order(single) is None


class TestMaterializedExecution:
    def test_materialized_leaf_resolves_from_registry(self, small_db):
        registry = IntermediateRegistry()
        relation = Relation({"o.o_id": np.arange(10)})
        registry.store({"o"}, relation)
        executor = Executor(small_db, intermediates=registry)
        node = MaterializedNode(relations=frozenset({"o"}), estimated_rows=10.0)
        result = executor.execute_fragment(node)
        assert result.num_rows == 10
        assert result.node_executions[0].kind == "materialized"
        # Reuse is free: no resources charged.
        assert result.simulated_cost == 0.0
        assert result.actual_cardinalities()[frozenset({"o"})] == 10

    def test_materialized_leaf_without_registry_raises(self, small_db):
        executor = Executor(small_db)
        node = MaterializedNode(relations=frozenset({"o"}), estimated_rows=1.0)
        with pytest.raises(ExecutionError):
            executor.execute_fragment(node)

    def test_fragmentwise_join_matches_monolithic(self, small_db):
        """Executing scans and the join as separate checkpointed fragments
        reproduces the monolithic execution bit for bit."""
        query = parse_query(
            "SELECT count(*) FROM orders o, items i WHERE o.o_id = i.i_order"
        )
        plan = Optimizer(small_db).optimize(query)
        monolithic = Executor(small_db).execute_plan(plan, query)

        registry = IntermediateRegistry()
        executor = Executor(small_db, intermediates=registry)
        join_node = plan.child
        for scan in join_node.scan_nodes():
            fragment = executor.execute_fragment(scan, query)
            registry.store({scan.alias}, fragment.columns)
        from dataclasses import replace

        spliced = replace(
            join_node,
            left=MaterializedNode(relations=frozenset(join_node.left.relations)),
            right=MaterializedNode(relations=frozenset(join_node.right.relations)),
        )
        fragment = executor.execute_fragment(spliced, query)
        assert fragment.num_rows == monolithic.actual_cardinalities()[
            frozenset({"o", "i"})
        ]


class TestSingleTableCardinalities:
    """Join-free queries must report their result cardinality (satellite fix
    contract: adaptive gating and the golden suite assert these)."""

    def test_seq_scan_single_table(self, small_db):
        query = parse_query("SELECT count(*) FROM orders o WHERE o.o_total > 500")
        result = Executor(small_db).execute(query)
        actuals = result.actual_cardinalities()
        assert frozenset({"o"}) in actuals
        assert actuals[frozenset({"o"})] == result.columns["count"][0]

    def test_index_scan_single_table(self, small_db):
        query = (
            QueryBuilder("q").table("orders", "o").filter("o", "o_id", "=", 5)
            .aggregate("count", output_name="n").build()
        )
        plan = Optimizer(small_db).optimize(query)
        result = Executor(small_db).execute_plan(plan, query)
        actuals = result.actual_cardinalities()
        assert actuals[frozenset({"o"})] == result.columns["n"][0]

    def test_projection_only_single_table(self, small_db):
        query = parse_query("SELECT o.o_id FROM orders o WHERE o.o_customer = 3")
        result = Executor(small_db).execute(query)
        assert result.actual_cardinalities()[frozenset({"o"})] == result.num_rows
