"""Lifecycle tests for the shared-memory segment registry and arenas.

The contract under test is the tentpole's cleanup guarantee: **no shared-
memory segment outlives the scheduler that published it** — not after a
normal ``close()``, not after a kernel raised, and not after a worker
process died mid-task.  Leaks are asserted two independent ways: through the
scheduler's own :class:`SegmentRegistry` ledger (``live_names`` plus the
created/unlinked counters) and through a registry-blind audit of ``/dev/shm``
(:func:`shm_dir_segments`), so a bookkeeping bug cannot hide an actual leak.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.relalg import (
    Relation,
    TaskScheduler,
    attach_array,
    attach_columns,
    shm_dir_segments,
)
from repro.relalg.shm import SEGMENT_PREFIX, SegmentRegistry, ShmArena

pytestmark = pytest.mark.usefixtures("multicore_host")


# --------------------------------------------------------------------------- #
# Kernel bodies (top-level so the worker processes can unpickle them)
# --------------------------------------------------------------------------- #
def _sum_task(descriptor):
    return float(np.sum(attach_array(descriptor)))


def _failing_task(descriptor):
    attach_array(descriptor)  # the attach itself must succeed
    raise ValueError("kernel failure for the lifecycle test")


def _crash_task(payload):
    """Kill the worker process dead — no exception, no cleanup.

    Guarded by the parent's pid: the crash-recovery path re-runs lost tasks
    *inline in the parent*, and that re-run must return normally instead of
    taking the test process down with it.
    """
    parent_pid, descriptor, crash = payload
    if crash and os.getpid() != parent_pid:
        os._exit(17)
    return float(np.sum(attach_array(descriptor)))


def _our_segments():
    """The /dev/shm audit, scoped to this prefix (empty on non-POSIX hosts)."""
    return [name for name in shm_dir_segments() if name.startswith(SEGMENT_PREFIX)]


def assert_no_leaks(scheduler: TaskScheduler) -> None:
    registry = scheduler.segments
    assert registry.live_names() == []
    assert registry.unlinked_total == registry.created_total
    assert _our_segments() == []


# --------------------------------------------------------------------------- #
# Registry + arena scoping
# --------------------------------------------------------------------------- #
class TestSegmentRegistry:
    def test_refcounted_release(self):
        registry = SegmentRegistry()
        segment = registry.create(64)
        name = segment.name
        registry.retain(name)
        registry.release(name)
        assert registry.live_names() == [name]  # one reference still held
        registry.release(name)
        assert registry.live_names() == []
        assert registry.created_total == 1 and registry.unlinked_total == 1
        assert name not in shm_dir_segments()

    def test_unlink_all_force_frees_everything(self):
        registry = SegmentRegistry()
        names = [registry.create(16).name for _ in range(3)]
        registry.retain(names[0])  # even extra references do not survive
        assert sorted(registry.live_names()) == sorted(names)
        assert registry.unlink_all() == 3
        assert registry.live_names() == []
        assert not set(names) & set(shm_dir_segments())

    def test_release_of_unknown_name_is_a_no_op(self):
        registry = SegmentRegistry()
        registry.release("repro_shm_never_created")
        assert registry.live_names() == []


class TestShmArena:
    def test_scope_exit_releases_all_segments(self, make_rng):
        registry = SegmentRegistry()
        with ShmArena(registry) as arena:
            arena.share_array(make_rng(0).uniform(size=1000))
            arena.share_bytes(b"morsels")
            assert len(registry.live_names()) == 2
        assert registry.live_names() == []
        assert registry.unlinked_total == registry.created_total == 2

    def test_scope_exit_releases_on_exception(self, make_rng):
        registry = SegmentRegistry()
        with pytest.raises(RuntimeError):
            with ShmArena(registry) as arena:
                arena.share_array(make_rng(1).integers(0, 10, size=500))
                raise RuntimeError("kernel blew up mid-publish")
        assert registry.live_names() == []

    def test_relation_round_trip_is_bit_identical(self, make_rng):
        from repro.relalg import DictEncodedArray

        rng = make_rng(2)
        relation = Relation(
            {
                "t.a": rng.integers(0, 100, size=400),
                "t.v": rng.uniform(size=400),
                "t.s": DictEncodedArray.encode(
                    np.array([f"s{v}" for v in rng.integers(0, 7, size=400)], dtype=object)
                ),
            }
        )
        registry = SegmentRegistry()
        with ShmArena(registry) as arena:
            descriptor = relation.to_shared(arena)
            attached = Relation.from_descriptor(descriptor)
            assert attached.num_rows == relation.num_rows
            assert np.array_equal(
                np.asarray(attached["t.a"]), np.asarray(relation["t.a"])
            )
            assert np.array_equal(
                np.asarray(attached["t.v"]), np.asarray(relation["t.v"])
            )
            assert np.array_equal(attached["t.s"].codes, relation["t.s"].codes)
            assert np.array_equal(attached["t.s"].dictionary, relation["t.s"].dictionary)
            # Plain columns are zero-copy views of the shared buffer, not copies.
            assert not np.shares_memory(
                np.asarray(attached["t.a"]), np.asarray(relation["t.a"])
            )
            del attached  # views must die before the arena frees the buffers
        assert registry.live_names() == []

    def test_columns_attach_inside_worker_processes(self, make_rng):
        values = make_rng(3).uniform(size=10_000)
        with TaskScheduler(workers=2, name="shmtest") as sched:
            with sched.new_arena() as arena:
                descriptor = arena.share_array(values)
                results = sched.map_kernel(_sum_task, [descriptor] * 4)
            assert results == [float(np.sum(values))] * 4
            assert sched.stats().tasks_process == 4
        assert_no_leaks(sched)


# --------------------------------------------------------------------------- #
# Scheduler-coupled lifecycle: close, exceptions, crashes
# --------------------------------------------------------------------------- #
class TestSchedulerCleanup:
    def test_close_unlinks_stragglers(self, make_rng):
        sched = TaskScheduler(workers=2, name="straggler")
        arena = sched.new_arena()  # deliberately never released: a "leak"
        arena.share_array(make_rng(4).uniform(size=2048))
        assert len(sched.segments.live_names()) == 1
        sched.close()
        assert_no_leaks(sched)
        assert sched.closed

    def test_close_is_idempotent(self):
        sched = TaskScheduler(workers=2, name="idem")
        sched.close()
        sched.close()
        assert_no_leaks(sched)

    def test_kernel_exception_releases_segments(self, make_rng):
        values = make_rng(5).uniform(size=4096)
        with TaskScheduler(workers=2, name="failing") as sched:
            with pytest.raises(ValueError, match="kernel failure"):
                with sched.new_arena() as arena:
                    descriptor = arena.share_array(values)
                    sched.map_kernel(_failing_task, [descriptor] * 3)
            # The arena's scope exit already freed the batch's segments.
            assert sched.segments.live_names() == []
            # The scheduler survives the failure and stays usable.
            with sched.new_arena() as arena:
                descriptor = arena.share_array(values)
                assert sched.map_kernel(_sum_task, [descriptor] * 2) == [
                    float(np.sum(values))
                ] * 2
        assert_no_leaks(sched)

    def test_thread_map_exception_leaves_no_segments(self):
        def explode(item):
            raise RuntimeError(f"task {item} failed")

        with TaskScheduler(workers=2, name="threads") as sched:
            with pytest.raises(RuntimeError):
                sched.map(explode, range(4))
        assert_no_leaks(sched)

    def test_worker_crash_recovers_and_leaks_nothing(self, make_rng):
        values = make_rng(6).uniform(size=8192)
        expected = float(np.sum(values))
        parent = os.getpid()
        with TaskScheduler(workers=2, name="crash") as sched:
            with sched.new_arena() as arena:
                descriptor = arena.share_array(values)
                payloads = [
                    (parent, descriptor, index == 1) for index in range(6)
                ]
                results = sched.map_kernel(_crash_task, payloads)
            # Every task's result is present and correct despite the death.
            assert results == [expected] * 6
            stats = sched.stats()
            assert stats.process_pool_crashes == 1
            assert stats.tasks_inline >= 1  # the lost tasks re-ran inline
            # The pool respawns lazily and serves the next batch normally.
            with sched.new_arena() as arena:
                descriptor = arena.share_array(values)
                assert sched.map_kernel(_sum_task, [descriptor] * 4) == [expected] * 4
            assert sched.stats().process_pool_crashes == 1
        assert_no_leaks(sched)

    def test_shutdown_is_reusable_and_frees_nothing_early(self, make_rng):
        values = make_rng(7).uniform(size=1024)
        sched = TaskScheduler(workers=2, name="reuse")
        try:
            with sched.new_arena() as arena:
                descriptor = arena.share_array(values)
                first = sched.map_kernel(_sum_task, [descriptor] * 2)
            sched.shutdown()  # parks the pools, keeps the scheduler usable
            assert not sched.closed
            with sched.new_arena() as arena:
                descriptor = arena.share_array(values)
                second = sched.map_kernel(_sum_task, [descriptor] * 2)
            assert first == second == [float(np.sum(values))] * 2
        finally:
            sched.close()
        assert_no_leaks(sched)

    def test_parallel_query_kernels_leak_nothing(self, make_rng):
        """End to end: join + aggregation + filter through the process tier,
        then close — both the ledger and /dev/shm must come back empty."""
        import repro.relalg.aggregate as aggregate_module
        import repro.relalg.joins as joins_module
        import repro.relalg.predicates as predicates_module
        from repro.relalg import filter_relation, group_aggregate, parallel_hash_join
        from repro.sql.ast import Aggregate, ColumnRef, JoinPredicate, LocalPredicate

        rng = make_rng(8)
        left = Relation(
            {
                "l.k": rng.integers(0, 50, size=3000),
                "l.v": rng.uniform(size=3000),
            }
        )
        right = Relation(
            {
                "r.k": rng.integers(0, 50, size=2000),
                "r.w": rng.uniform(size=2000),
            }
        )
        saved = (
            joins_module._MIN_PARALLEL_JOIN_ROWS,
            aggregate_module._MIN_PARALLEL_AGG_ROWS,
            predicates_module._MIN_PARALLEL_FILTER_ROWS,
        )
        joins_module._MIN_PARALLEL_JOIN_ROWS = 0
        aggregate_module._MIN_PARALLEL_AGG_ROWS = 0
        predicates_module._MIN_PARALLEL_FILTER_ROWS = 0
        try:
            with TaskScheduler(workers=2, name="e2e") as sched:
                joined = parallel_hash_join(
                    left, right, [JoinPredicate("l", "k", "r", "k")],
                    frozenset({"l"}), scheduler=sched,
                )
                filtered = filter_relation(
                    joined, "l", [LocalPredicate("l", "v", "between", (0.2, 0.9))],
                    sched, 256,
                )
                group_aggregate(
                    filtered,
                    [ColumnRef("l", "k")],
                    [Aggregate("sum", "l", "v", "total")],
                    scheduler=sched,
                    morsel_rows=256,
                )
                assert sched.stats().tasks_process > 0
                assert sched.segments.live_names() == []  # arenas are scoped
        finally:
            (
                joins_module._MIN_PARALLEL_JOIN_ROWS,
                aggregate_module._MIN_PARALLEL_AGG_ROWS,
                predicates_module._MIN_PARALLEL_FILTER_ROWS,
            ) = saved
        assert_no_leaks(sched)
