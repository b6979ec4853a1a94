"""TaskScheduler: in-order execution in the caller, idempotent close, counters."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.relalg import TaskScheduler


class TestOrdering:
    def test_results_in_submission_order(self):
        seen = []

        def record(item: int) -> int:
            seen.append(item)
            return item * 10

        scheduler = TaskScheduler(workers=4, name="ordered")
        assert scheduler.map_kernel(record, range(5)) == [0, 10, 20, 30, 40]
        assert seen == [0, 1, 2, 3, 4]

    def test_serial_scheduler_runs_inline(self):
        children = multiprocessing.active_children()
        caller = threading.get_ident()
        scheduler = TaskScheduler(workers=2, name="inline")
        results = scheduler.map_kernel(
            lambda item: (item + 1, threading.get_ident()), [1, 2, 3]
        )
        assert results == [(2, caller), (3, caller), (4, caller)]
        stats = scheduler.stats()
        assert stats.tasks_inline == 3 and stats.tasks_process == 0
        assert multiprocessing.active_children() == children

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_workers_is_recorded_and_runs_nothing(self, workers):
        children = multiprocessing.active_children()
        caller = threading.get_ident()
        scheduler = TaskScheduler(workers=workers, name="sized")
        assert scheduler.workers == workers
        assert scheduler.map_kernel(lambda _: threading.get_ident(), range(4)) == [caller] * 4
        assert scheduler.stats().tasks_process == 0
        assert multiprocessing.active_children() == children

    def test_empty_batch_runs_nothing(self):
        scheduler = TaskScheduler(name="empty")
        assert scheduler.map_kernel(lambda item: item, []) == []
        assert scheduler.stats().tasks_inline == 0

    def test_generator_payloads_are_consumed_once_in_order(self):
        pulled = []

        def payloads():
            for item in range(4):
                pulled.append(item)
                yield item

        scheduler = TaskScheduler(name="generator")
        assert scheduler.map_kernel(lambda item: -item, payloads()) == [0, -1, -2, -3]
        assert pulled == [0, 1, 2, 3]
        assert scheduler.stats().tasks_inline == 4


class TestErrors:
    def test_exception_propagates_unchanged_and_stops_the_batch(self):
        failure = ValueError("task 1 failed")
        seen = []

        def task(item: int) -> int:
            seen.append(item)
            if item == 1:
                raise failure
            return item

        scheduler = TaskScheduler(name="failing")
        with pytest.raises(ValueError) as excinfo:
            scheduler.map_kernel(task, range(4))
        assert excinfo.value is failure
        assert seen == [0, 1]

    def test_scheduler_serves_after_a_failed_batch(self):
        def boom(item: int) -> int:
            raise RuntimeError("boom")

        scheduler = TaskScheduler(name="recovers")
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.map_kernel(boom, [1, 2])
        before = scheduler.stats().tasks_inline
        assert scheduler.map_kernel(lambda item: item + 1, [1, 2, 3]) == [2, 3, 4]
        assert scheduler.stats().tasks_inline == before + 3


class TestCounters:
    def test_concurrent_batches_lose_no_count(self):
        """Shards of concurrent scatters submit from many caller threads at once."""
        scheduler = TaskScheduler(name="concurrent")
        threads_count, batches, batch_size = 8, 25, 3
        start = threading.Barrier(threads_count)

        def client() -> None:
            start.wait(timeout=30)
            for _ in range(batches):
                scheduler.map_kernel(lambda item: item, range(batch_size))

        threads = [threading.Thread(target=client) for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        stats = scheduler.stats()
        assert stats.tasks_inline == threads_count * batches * batch_size
        assert stats.tasks_process == 0

    def test_busy_seconds_cover_the_task_bodies(self):
        scheduler = TaskScheduler(name="busy")
        scheduler.map_kernel(lambda _: time.sleep(0.01), range(3))
        assert scheduler.stats().busy_seconds >= 0.03

    def test_stats_is_a_snapshot(self):
        scheduler = TaskScheduler(name="snapshot")
        scheduler.map_kernel(lambda item: item, range(2))
        snapshot = scheduler.stats()
        snapshot.tasks_inline = 99
        assert scheduler.stats().tasks_inline == 2
        scheduler.map_kernel(lambda item: item, range(3))
        assert snapshot.tasks_inline == 99
        assert scheduler.stats().tasks_inline == 5


class TestClose:
    def test_close_is_idempotent(self):
        scheduler = TaskScheduler(workers=2, name="close-idem")
        scheduler.close()
        scheduler.close()
        assert scheduler.map_kernel(lambda item: item * 10, [1, 2, 3]) == [10, 20, 30]

    def test_counters_survive_close(self):
        scheduler = TaskScheduler(workers=2, name="counted")
        scheduler.map_kernel(lambda item: item, range(6))
        before = scheduler.stats()
        assert before.tasks_inline == 6 and before.tasks_process == 0
        assert before.busy_seconds > 0.0
        scheduler.close()
        assert scheduler.stats() == before
