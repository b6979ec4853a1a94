"""Property tests for the morsel-driven parallel runtime.

The contract under test is the tentpole's hard requirement: **every parallel
path is bit-identical to the serial path** — same rows, same order, same
dtypes, including float aggregates whose accumulation order must not change.
The tests sweep randomized data, morsel sizes and partition counts across

* the partition-parallel hash join (int keys, dict-encoded string keys,
  multi-column composite keys, and the int64 composite-domain overflow path
  that routes predicates through the residual filter);
* chunk-parallel grouped aggregation (sum/avg float bit-identity, string
  min/max, count);
* morsel-parallel predicate evaluation;
* the scheduler itself (ordered results, nested-map safety);
* end-to-end query execution over the TPC-H / TPC-DS / OTT generators.

Parallel kernels normally fall back to serial below a row threshold; the
``force_parallel`` fixture zeroes those thresholds so small randomized
relations still exercise the parallel machinery.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.relalg.aggregate as aggregate_module
import repro.relalg.joins as joins_module
import repro.relalg.predicates as predicates_module
from repro.relalg import (
    ChunkedRelation,
    DictEncodedArray,
    Relation,
    TaskScheduler,
    filter_relation,
    group_aggregate,
    hash_join,
    parallel_hash_join,
)
from repro.sql.ast import Aggregate, ColumnRef, JoinPredicate, LocalPredicate


@pytest.fixture
def force_parallel(monkeypatch):
    """Zero the serial-fallback row thresholds so small inputs go parallel."""
    monkeypatch.setattr(joins_module, "_MIN_PARALLEL_JOIN_ROWS", 0)
    monkeypatch.setattr(aggregate_module, "_MIN_PARALLEL_AGG_ROWS", 0)
    monkeypatch.setattr(predicates_module, "_MIN_PARALLEL_FILTER_ROWS", 0)


pytestmark = pytest.mark.usefixtures("multicore_host")


@pytest.fixture(scope="module")
def scheduler(multicore_host):
    with TaskScheduler(workers=4, name="test") as sched:
        yield sched


def assert_bit_identical(serial: Relation, parallel: Relation) -> None:
    """Same columns, rows, row order, dtypes — byte-for-byte equality."""
    assert set(serial) == set(parallel)
    assert serial.num_rows == parallel.num_rows
    for name in serial:
        a, b = serial[name], parallel[name]
        if isinstance(a, DictEncodedArray):
            assert isinstance(b, DictEncodedArray), name
            assert np.array_equal(a.codes, b.codes), name
            assert np.array_equal(a.dictionary, b.dictionary), name
        else:
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


def _keyed_relation(rng, alias, rows, domain, string_keys):
    key_values = rng.integers(0, domain, size=rows)
    if string_keys:
        key = DictEncodedArray.encode(
            np.array([f"key_{value:05d}" for value in key_values], dtype=object)
        )
    else:
        key = key_values
    return Relation(
        {
            f"{alias}.k": key,
            f"{alias}.k2": rng.integers(0, max(2, domain // 3), size=rows),
            f"{alias}.payload": rng.uniform(0.0, 100.0, size=rows),
        }
    )


class TestParallelHashJoinBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("string_keys", [False, True])
    def test_single_key_random(self, force_parallel, scheduler, seed, string_keys, make_rng):
        rng = make_rng(seed)
        left = _keyed_relation(
            rng, "l", int(rng.integers(0, 500)), int(rng.integers(1, 60)), string_keys
        )
        right = _keyed_relation(
            rng, "r", int(rng.integers(0, 500)), int(rng.integers(1, 60)), string_keys
        )
        predicates = [JoinPredicate("l", "k", "r", "k")]
        serial = hash_join(left, right, predicates, frozenset({"l"}))
        for num_partitions in (None, 1, 3, 7):
            parallel = parallel_hash_join(
                left, right, predicates, frozenset({"l"}),
                scheduler=scheduler, num_partitions=num_partitions,
            )
            assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_keys(self, force_parallel, scheduler, seed, make_rng):
        rng = make_rng(100 + seed)
        left = _keyed_relation(rng, "l", 300, 12, False)
        right = _keyed_relation(rng, "r", 250, 12, False)
        predicates = [
            JoinPredicate("l", "k", "r", "k"),
            JoinPredicate("l", "k2", "r", "k2"),
        ]
        serial = hash_join(left, right, predicates, frozenset({"l"}))
        parallel = parallel_hash_join(
            left, right, predicates, frozenset({"l"}), scheduler=scheduler
        )
        assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("string_keys", [False, True])
    def test_composite_domain_overflow_residual_path(
        self, force_parallel, scheduler, monkeypatch, string_keys
    , make_rng):
        """When the composite int64 domain overflows, extra predicates become
        residual filters on the matched pairs — serial and parallel must
        agree bit for bit on that path too (shrinking the overflow limit
        forces it without multi-million-value dictionaries)."""
        monkeypatch.setattr(joins_module, "_MAX_COMPOSITE_DOMAIN", 8)
        rng = make_rng(7)
        left = _keyed_relation(rng, "l", 400, 20, string_keys)
        right = _keyed_relation(rng, "r", 350, 20, string_keys)
        predicates = [
            JoinPredicate("l", "k", "r", "k"),
            JoinPredicate("l", "k2", "r", "k2"),
        ]
        # The shrunken limit must actually trigger the residual path.
        codes = joins_module._composite_codes(left, right, predicates, frozenset({"l"}))
        assert codes[3], "expected the overflow limit to force a residual predicate"
        serial = hash_join(left, right, predicates, frozenset({"l"}))
        parallel = parallel_hash_join(
            left, right, predicates, frozenset({"l"}), scheduler=scheduler
        )
        assert_bit_identical(serial, parallel)
        # Cross-check against the unshrunken composite-key result (the
        # residual path must not change the answer, only the route).
        monkeypatch.undo()
        assert_bit_identical(hash_join(left, right, predicates, frozenset({"l"})), serial)

    def test_empty_and_no_match_inputs(self, force_parallel, scheduler, make_rng):
        rng = make_rng(1)
        left = _keyed_relation(rng, "l", 100, 5, False)
        empty = _keyed_relation(rng, "r", 0, 5, False)
        predicates = [JoinPredicate("l", "k", "r", "k")]
        assert_bit_identical(
            hash_join(left, empty, predicates, frozenset({"l"})),
            parallel_hash_join(left, empty, predicates, frozenset({"l"}), scheduler=scheduler),
        )
        disjoint = Relation({"r.k": rng.integers(100, 110, size=50),
                             "r.k2": rng.integers(0, 3, size=50),
                             "r.payload": rng.uniform(size=50)})
        assert_bit_identical(
            hash_join(left, disjoint, predicates, frozenset({"l"})),
            parallel_hash_join(left, disjoint, predicates, frozenset({"l"}), scheduler=scheduler),
        )


class TestParallelAggregationBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("morsel_rows", [7, 64, 1000, 100_000])
    def test_float_sum_avg_bit_identity(self, force_parallel, scheduler, seed, morsel_rows, make_rng):
        """Group-aligned chunking must keep float accumulation order — the
        sums must be *exactly* equal, not just allclose."""
        rng = make_rng(seed)
        rows = int(rng.integers(1, 3000))
        relation = Relation(
            {
                "t.g": rng.integers(0, max(1, rows // 4), size=rows),
                "t.v": rng.uniform(-1e6, 1e6, size=rows),
            }
        )
        group_by = [ColumnRef("t", "g")]
        aggregates = [
            Aggregate("sum", "t", "v", "total"),
            Aggregate("avg", "t", "v", "mean"),
            Aggregate("min", "t", "v", "lo"),
            Aggregate("max", "t", "v", "hi"),
            Aggregate("count", None, None, "n"),
        ]
        serial = group_aggregate(relation, group_by, aggregates)
        parallel = group_aggregate(
            relation, group_by, aggregates, scheduler=scheduler, morsel_rows=morsel_rows
        )
        assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("morsel_rows", [3, 50, 1024])
    def test_string_keys_and_string_min_max(self, force_parallel, scheduler, morsel_rows, make_rng):
        rng = make_rng(13)
        rows = 800
        categories = np.array([f"cat_{i:02d}" for i in range(17)], dtype=object)
        relation = Relation(
            {
                "t.g": DictEncodedArray.encode(categories[rng.integers(0, 17, size=rows)]),
                "t.s": DictEncodedArray.encode(
                    np.array([f"val_{v:04d}" for v in rng.integers(0, 300, size=rows)], dtype=object)
                ),
                "t.v": rng.uniform(size=rows),
            }
        )
        aggregates = [
            Aggregate("min", "t", "s", "lo"),
            Aggregate("max", "t", "s", "hi"),
            Aggregate("sum", "t", "v", "total"),
            Aggregate("count", None, None, "n"),
        ]
        serial = group_aggregate(relation, [ColumnRef("t", "g")], aggregates)
        parallel = group_aggregate(
            relation, [ColumnRef("t", "g")], aggregates,
            scheduler=scheduler, morsel_rows=morsel_rows,
        )
        assert_bit_identical(serial, parallel)

    def test_global_aggregate_unaffected(self, force_parallel, scheduler, make_rng):
        rng = make_rng(3)
        relation = Relation({"t.v": rng.uniform(size=500)})
        aggregates = [Aggregate("sum", "t", "v", "s"), Aggregate("count", None, None, "n")]
        serial = group_aggregate(relation, [], aggregates)
        parallel = group_aggregate(relation, [], aggregates, scheduler=scheduler)
        assert_bit_identical(serial, parallel)


class TestParallelFilterBitIdentity:
    @pytest.mark.parametrize("morsel_rows", [5, 128, 4096])
    def test_filter_masks_identical(self, force_parallel, scheduler, morsel_rows, make_rng):
        rng = make_rng(21)
        rows = 2000
        relation = Relation(
            {
                "t.a": rng.integers(0, 50, size=rows),
                "t.s": DictEncodedArray.encode(
                    np.array([f"v{v:02d}" for v in rng.integers(0, 30, size=rows)], dtype=object)
                ),
            }
        )
        predicates = [
            LocalPredicate("t", "a", "between", (10, 35)),
            LocalPredicate("t", "s", "in", ("v01", "v05", "v27")),
        ]
        serial = filter_relation(relation, "t", predicates)
        parallel = filter_relation(
            relation, "t", predicates, scheduler, morsel_rows
        )
        assert_bit_identical(serial, parallel)


class TestChunkedRelation:
    def test_zero_copy_morsels(self, make_rng):
        rng = make_rng(5)
        relation = Relation(
            {
                "t.a": rng.integers(0, 9, size=1000),
                "t.s": DictEncodedArray.encode(
                    np.array([f"x{v}" for v in rng.integers(0, 5, size=1000)], dtype=object)
                ),
            }
        )
        chunked = ChunkedRelation(relation, morsel_rows=300)
        assert chunked.num_morsels == 4
        assert [stop - start for start, stop in chunked.bounds] == [300, 300, 300, 100]
        assert sum(m.num_rows for m in chunked) == 1000
        morsel = chunked.morsel(1)
        assert np.shares_memory(np.asarray(morsel["t.a"]), np.asarray(relation["t.a"]))
        assert np.shares_memory(morsel["t.s"].codes, relation["t.s"].codes)
        assert morsel["t.s"].dictionary is relation["t.s"].dictionary
        assert chunked.concat() is relation

    def test_empty_relation_has_one_empty_morsel(self):
        chunked = ChunkedRelation(Relation(), morsel_rows=10)
        assert chunked.num_morsels == 1
        assert chunked.morsel(0).num_rows == 0

    def test_concat_of_morsels_round_trips(self, make_rng):
        from repro.relalg import concat_relations

        rng = make_rng(8)
        relation = Relation(
            {
                "t.a": rng.integers(0, 9, size=777),
                "t.s": DictEncodedArray.encode(
                    np.array([f"x{v}" for v in rng.integers(0, 5, size=777)], dtype=object)
                ),
            }
        )
        rebuilt = concat_relations(ChunkedRelation(relation, morsel_rows=100))
        assert_bit_identical(relation, rebuilt)
        # Morsel parts share one dictionary, so the rebuilt string column
        # concatenates in code space without re-encoding.
        assert rebuilt["t.s"].dictionary is relation["t.s"].dictionary

    def test_fingerprint_tracks_content_and_grid(self):
        base = Relation({"t.a": np.arange(100), "t.b": np.arange(100) * 2.0})
        same = Relation({"t.a": np.arange(100), "t.b": np.arange(100) * 2.0})
        assert ChunkedRelation(base, 16).fingerprint() == ChunkedRelation(same, 16).fingerprint()
        assert ChunkedRelation(base, 16).fingerprint() != ChunkedRelation(base, 32).fingerprint()
        changed = Relation({"t.a": np.arange(100), "t.b": np.arange(100) * 2.0})
        changed["t.b"] = np.asarray(changed["t.b"]).copy()
        np.asarray(changed["t.b"])[50] += 1.0
        assert ChunkedRelation(base, 16).fingerprint() != ChunkedRelation(changed, 16).fingerprint()


class TestTaskScheduler:
    def test_results_in_submission_order(self):
        import time as time_module

        with TaskScheduler(workers=4) as sched:
            def slow_identity(item):
                # Earlier items sleep longer: completion order is reversed.
                time_module.sleep(0.02 * (5 - item))
                return item

            assert sched.map(slow_identity, range(5)) == [0, 1, 2, 3, 4]
            assert sched.stats().tasks_completed == 5

    def test_serial_scheduler_runs_inline(self):
        sched = TaskScheduler(workers=1)
        assert not sched.parallel
        assert sched.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        stats = sched.stats()
        assert stats.tasks_submitted == 0 and stats.tasks_inline == 3

    def test_nested_map_from_worker_runs_inline(self):
        with TaskScheduler(workers=2) as sched:
            def outer(item):
                return sum(sched.map(lambda x: x + item, range(3)))

            assert sched.map(outer, [10, 20]) == [33, 63]

    def test_queue_depth_high_water(self):
        with TaskScheduler(workers=2) as sched:
            sched.map(lambda x: x, range(8))
            assert sched.max_queue_depth >= 2
            assert sched.queue_depth == 0
