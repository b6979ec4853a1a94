"""TaskScheduler lifecycle: idempotent shutdown, terminal close, no leaks."""

from __future__ import annotations

import threading

import pytest

from repro.relalg import TaskScheduler

pytestmark = pytest.mark.usefixtures("multicore_host")


def _worker_threads(scheduler_name: str):
    prefix = f"{scheduler_name}-morsel"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


class TestShutdown:
    def test_shutdown_is_idempotent(self):
        scheduler = TaskScheduler(workers=2, name="idem")
        assert scheduler.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        scheduler.shutdown()
        scheduler.shutdown()
        scheduler.shutdown()
        assert not _worker_threads("idem")

    def test_shutdown_allows_respawn(self):
        """A parked pool is revived by the next map."""
        scheduler = TaskScheduler(workers=2, name="respawn")
        scheduler.map(lambda x: x, [1, 2])
        scheduler.shutdown()
        assert scheduler.map(lambda x: x * 10, [1, 2]) == [10, 20]
        assert _worker_threads("respawn")
        scheduler.shutdown()

    def test_concurrent_shutdown_is_safe(self):
        scheduler = TaskScheduler(workers=4, name="concshut")
        scheduler.map(lambda x: x, range(8))
        threads = [threading.Thread(target=scheduler.shutdown) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not _worker_threads("concshut")


class TestClose:
    def test_close_is_terminal_but_still_serves_inline(self):
        scheduler = TaskScheduler(workers=2, name="terminal")
        scheduler.map(lambda x: x, [1])
        scheduler.close()
        assert scheduler.closed
        # Maps still work (inline), but never respawn worker threads.
        assert scheduler.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert not _worker_threads("terminal")
        stats = scheduler.stats()
        assert stats.tasks_inline >= 3

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
                scheduler.map(lambda x: x, [1, 2, 3, 4])
                raise RuntimeError("boom")
        assert scheduler.closed
        scheduler.map(lambda x: x, [5, 6])  # inline, no respawn
        assert not _worker_threads("leaky")

    def test_closed_scheduler_reports_serial(self):
        scheduler = TaskScheduler(workers=4, name="serialized")
        assert scheduler.parallel
        scheduler.close()
        assert not scheduler.parallel

    def test_counters_survive_close(self):
        scheduler = TaskScheduler(workers=2, name="counted")
        scheduler.map(lambda x: x, range(6))
        submitted_before = scheduler.stats().tasks_submitted
        scheduler.close()
        assert scheduler.stats().tasks_submitted == submitted_before
