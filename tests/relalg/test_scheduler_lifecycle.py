"""TaskScheduler lifecycle: idempotent shutdown, terminal close, no leaks."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.relalg import TaskScheduler

pytestmark = pytest.mark.usefixtures("multicore_host")


# Kernel bodies are top-level so the worker processes can unpickle them.
def _identity_task(item: int) -> int:
    return item


def _increment_task(item: int) -> int:
    return item + 1


def _times_ten_task(item: int) -> int:
    return item * 10


def _slow_identity_task(item: int) -> int:
    # Earlier items sleep longer: completion order is the reverse.
    time.sleep(0.02 * (5 - item))
    return item


def _worker_processes(scheduler_name: str):
    prefix = f"{scheduler_name}-kernel"
    return [p for p in multiprocessing.active_children() if p.name.startswith(prefix)]


class TestOrdering:
    def test_results_in_submission_order(self):
        with TaskScheduler(workers=4, name="ordered") as scheduler:
            assert scheduler.map_kernel(_slow_identity_task, range(5)) == [0, 1, 2, 3, 4]
            stats = scheduler.stats()
            assert stats.tasks_completed == stats.tasks_process == 5

    def test_serial_scheduler_runs_inline(self):
        scheduler = TaskScheduler(workers=1, name="serial")
        assert not scheduler.parallel
        assert scheduler.map_kernel(_increment_task, [1, 2, 3]) == [2, 3, 4]
        stats = scheduler.stats()
        assert stats.tasks_submitted == 0 and stats.tasks_inline == 3
        assert not _worker_processes("serial")


class TestShutdown:
    def test_shutdown_is_idempotent(self):
        scheduler = TaskScheduler(workers=2, name="idem")
        assert scheduler.map_kernel(_increment_task, [1, 2, 3]) == [2, 3, 4]
        assert _worker_processes("idem")
        scheduler.shutdown()
        scheduler.shutdown()
        scheduler.shutdown()
        assert not _worker_processes("idem")
        scheduler.close()

    def test_shutdown_allows_respawn(self):
        """A parked pool is revived by the next map_kernel."""
        scheduler = TaskScheduler(workers=2, name="respawn")
        scheduler.map_kernel(_identity_task, [1, 2])
        scheduler.shutdown()
        assert not _worker_processes("respawn")
        assert scheduler.map_kernel(_times_ten_task, [1, 2]) == [10, 20]
        assert _worker_processes("respawn")
        assert scheduler.stats().tasks_process == 4
        scheduler.close()

    def test_concurrent_shutdown_is_safe(self):
        scheduler = TaskScheduler(workers=2, name="concshut")
        scheduler.map_kernel(_identity_task, range(8))
        threads = [threading.Thread(target=scheduler.shutdown) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not _worker_processes("concshut")
        scheduler.close()


class TestClose:
    def test_close_is_terminal_but_still_serves_inline(self):
        scheduler = TaskScheduler(workers=2, name="terminal")
        scheduler.map_kernel(_identity_task, [1, 2])
        scheduler.close()
        assert scheduler.closed
        # Batches still work (inline), but never respawn worker processes.
        assert scheduler.map_kernel(_times_ten_task, [1, 2, 3]) == [10, 20, 30]
        assert not _worker_processes("terminal")
        assert scheduler.stats().tasks_inline >= 3

    def test_close_is_idempotent(self):
        scheduler = TaskScheduler(workers=2, name="close-idem")
        scheduler.close()
        scheduler.close()
        assert scheduler.closed

    def test_context_manager_closes_on_error(self):
        """The error path must not leak workers nor allow a later respawn —
        the service holds its scheduler in exactly this pattern."""
        with pytest.raises(RuntimeError, match="boom"):
            with TaskScheduler(workers=2, name="leaky") as scheduler:
                scheduler.map_kernel(_identity_task, [1, 2, 3, 4])
                raise RuntimeError("boom")
        assert scheduler.closed
        assert scheduler.map_kernel(_identity_task, [5, 6]) == [5, 6]  # inline
        assert not _worker_processes("leaky")

    def test_closed_scheduler_reports_serial(self):
        scheduler = TaskScheduler(workers=4, name="serialized")
        assert scheduler.parallel
        scheduler.close()
        assert not scheduler.parallel

    def test_counters_survive_close(self):
        scheduler = TaskScheduler(workers=2, name="counted")
        scheduler.map_kernel(_identity_task, range(6))
        before = scheduler.stats()
        assert before.tasks_submitted == before.tasks_process == 6
        scheduler.close()
        after = scheduler.stats()
        assert after.tasks_submitted == before.tasks_submitted
        assert after.tasks_process == before.tasks_process
