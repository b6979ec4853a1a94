"""On a single usable core the scheduler degrades to inline serial execution.

The process pool measured 0.67× vs serial at 2 workers on a 1-core host:
fork, descriptor pickling and queue transport are pure overhead when there
is zero available parallelism.  The contract under test: a
:class:`TaskScheduler` runs one inline worker when :func:`usable_cpu_count`
— the CPUs this process may run on, not the CPUs the machine has — is 1.
"""

from __future__ import annotations

import os

import pytest

from repro.relalg import TaskScheduler
from repro.relalg.scheduler import default_worker_count, resolve_worker_count, usable_cpu_count


def _double_task(payload: int) -> int:
    return payload * 2


@pytest.fixture
def single_core(monkeypatch):
    monkeypatch.setattr("repro.relalg.scheduler.usable_cpu_count", lambda: 1)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


class TestSingleCoreDegrade:
    def test_default_worker_count_is_one(self, single_core):
        assert default_worker_count() == 1
        assert resolve_worker_count("auto") == 1
        assert resolve_worker_count(None) == 1

    def test_scheduler_degrades_to_inline_serial(self, single_core):
        sched = TaskScheduler(workers=4, name="one-core")
        try:
            assert sched.workers == 1
            assert not sched.parallel
        finally:
            sched.close()

    def test_map_kernel_runs_inline(self, single_core):
        with TaskScheduler(workers=2, name="one-core-inline") as sched:
            assert sched.map_kernel(_double_task, [1, 2, 3]) == [2, 4, 6]
            stats = sched.stats()
            assert stats.tasks_inline == 3
            assert stats.tasks_submitted == 0
            assert stats.tasks_process == 0

    def test_multicore_host_keeps_requested_workers(self, monkeypatch):
        monkeypatch.setattr("repro.relalg.scheduler.usable_cpu_count", lambda: 8)
        sched = TaskScheduler(workers=4, name="eight-core")
        try:
            assert sched.workers == 4
            assert sched.parallel
        finally:
            sched.close()

    def test_workers_env_override_is_still_clamped(
        self, single_core, monkeypatch
    ):
        # REPRO_WORKERS drives the *auto* rule; the single-core degrade is
        # about pools being pure overhead, which an oversized auto count
        # does not change.
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_worker_count() == 6
        sched = TaskScheduler(name="env-sized")
        try:
            assert sched.workers == 1
        finally:
            sched.close()


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform"
)
class TestAffinity:
    """Cores this process is pinned to, not cores the machine has."""

    def test_one_pinned_core_degrades_whatever_the_machine_has(self, monkeypatch):
        monkeypatch.setattr("repro.relalg.scheduler.os.sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr("repro.relalg.scheduler.os.cpu_count", lambda: 64)
        assert usable_cpu_count() == 1
        sched = TaskScheduler(workers=2, name="pinned")
        try:
            assert sched.workers == 1
        finally:
            sched.close()

    def test_auto_sizing_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(
            "repro.relalg.scheduler.os.sched_getaffinity", lambda pid: set(range(6))
        )
        monkeypatch.setattr("repro.relalg.scheduler.os.cpu_count", lambda: 64)
        monkeypatch.setattr("repro.relalg.scheduler._total_ram_bytes", lambda: 64 * 1024**3)
        assert default_worker_count() == 4
