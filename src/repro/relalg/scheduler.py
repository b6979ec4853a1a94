"""The in-process task runner the sharded coordinator submits its scatter to.

:meth:`TaskScheduler.map_kernel` runs a batch in submission order in the
calling thread and counts the tasks and the seconds spent in them; the
benchmark's ``relalg.scheduler`` ledger reads those counters.  Nothing here
starts a thread or a process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, List, TypeVar

from repro.clock import monotonic_s

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class SchedulerStats:
    """Snapshot of the scheduler's lifetime counters."""

    #: Tasks run, every one of them in the caller's thread.
    tasks_inline: int = 0
    #: Tasks run on worker processes: always 0 (there are none).
    tasks_process: int = 0
    #: Seconds spent inside task bodies.
    busy_seconds: float = 0.0


class TaskScheduler:
    """Run task batches in the caller, in submission order, and count them.

    ``workers`` is recorded and runs nothing: it stays because the
    benchmark passes it.
    """

    def __init__(self, workers: int = 1, name: str = "relalg") -> None:
        self.workers = workers
        self.name = name
        self._lock = threading.Lock()
        self._tasks_inline = 0
        self._busy_seconds = 0.0

    def map_kernel(self, fn: Callable[[T], R], payloads: Iterable[T]) -> List[R]:
        """``[fn(payload) for payload in payloads]``, counted.

        An exception from ``fn`` propagates unchanged and stops the batch.
        """
        started = monotonic_s()
        results = [fn(payload) for payload in payloads]
        elapsed = monotonic_s() - started
        with self._lock:
            self._tasks_inline += len(results)
            self._busy_seconds += elapsed
        return results

    def stats(self) -> SchedulerStats:
        """A consistent snapshot of all counters."""
        with self._lock:
            return SchedulerStats(
                tasks_inline=self._tasks_inline, busy_seconds=self._busy_seconds
            )

    def close(self) -> None:
        """Nothing to release; idempotent, and ``map_kernel`` still runs after it."""
