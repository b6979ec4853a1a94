"""The process-backed worker pool the sharded coordinator scatters over.

Every query operator runs serially in the caller's process; the only work
that crosses a process boundary is the sharded coordinator's scatter — one
task per shard (:func:`repro.service.coordinator._shard_fragment_task`)
submitted through :meth:`TaskScheduler.map_kernel`.  Task functions must be
picklable top-level functions, and payloads are descriptor-sized: fork-started
workers inherit what they need by copy-on-write.

Design constraints, in order:

* **Determinism** — ``map_kernel`` returns results in submission order, so a
  caller that concatenates its task results is bit-identical to the serial
  loop over the same tasks.  Workers never decide output order.
* **Graceful degradation** — ``workers <= 1``, a single task, a closed
  scheduler, an unpicklable task or a *crashed worker pool* all degrade to
  inline execution of exactly the same task function; a request never fails
  because the pool did.
* **Deterministic cleanup** — every shared-memory segment published through
  :meth:`TaskScheduler.new_arena` is tracked by the scheduler's refcounted
  :class:`~repro.relalg.shm.SegmentRegistry`; :meth:`TaskScheduler.close`
  force-unlinks whatever is still alive.

Instrumentation: the scheduler counts submitted/completed/inline/process
tasks and the seconds spent inside task bodies.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.relalg.shm import SegmentRegistry, ShmArena, reset_worker_caches

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"
#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV_VAR = "REPRO_MP_START"

#: RAM budget per worker process of the auto-sizing rule (the large-scale
#: evaluation runbook's ``workers = min(cores - 2, RAM / 4GB)``).
_RAM_BYTES_PER_WORKER = 4 * 1024**3


def _total_ram_bytes() -> Optional[int]:
    """Physical RAM, or ``None`` when the platform exposes no way to ask."""
    try:
        page_size = os.sysconf("SC_PAGE_SIZE")
        pages = os.sysconf("SC_PHYS_PAGES")
        if page_size > 0 and pages > 0:
            return page_size * pages
    except (ValueError, OSError, AttributeError):
        pass
    return None


def usable_cpu_count() -> int:
    """CPUs this process may run on.

    The affinity mask where the platform has one (``taskset``, cgroup cpusets
    and container CPU pinning all narrow it), else ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def default_worker_count() -> int:
    """Auto-sized worker count: ``min(cores - 2, RAM / 4GB)``, floor 1.

    Two cores stay reserved for the coordinating threads (planner, service)
    and each worker is budgeted 4 GB of RAM, per the large-scale
    evaluation runbook.  ``cores`` is :func:`usable_cpu_count`.  On a
    single-core host the rule bottoms out at one worker, i.e. inline serial
    execution — a pool there is pure overhead.  ``REPRO_WORKERS`` overrides
    the rule outright.
    """
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    by_cores = usable_cpu_count() - 2
    ram = _total_ram_bytes()
    by_ram = ram // _RAM_BYTES_PER_WORKER if ram else by_cores
    return max(1, min(by_cores, by_ram))


def resolve_worker_count(workers: Union[int, str, None]) -> int:
    """Normalize a ``workers`` knob: int, ``"auto"`` or ``None`` (= auto)."""
    if workers is None or workers == "auto":
        return default_worker_count()
    return max(1, int(workers))


def _start_method() -> str:
    env = os.environ.get(START_METHOD_ENV_VAR)
    methods = multiprocessing.get_all_start_methods()
    if env in methods:
        return env
    # fork is markedly cheaper and inherits the imported modules; platforms
    # without it (Windows, macOS default) fall back to spawn.
    return "fork" if "fork" in methods else "spawn"


@dataclass
class SchedulerStats:
    """Snapshot of the scheduler's lifetime counters."""

    workers: int
    tasks_submitted: int = 0
    tasks_completed: int = 0
    tasks_inline: int = 0
    busy_seconds: float = 0.0
    #: Kernel tasks executed on worker *processes* (subset of completed).
    tasks_process: int = 0
    #: Times the process pool was torn down after a worker died mid-task.
    process_pool_crashes: int = 0


# --------------------------------------------------------------------------- #
# Worker-process entry point (must be a picklable top-level function)
# --------------------------------------------------------------------------- #
def _process_worker_main(
    task_queue: "multiprocessing.Queue[Optional[Tuple[int, bytes]]]",
    result_queue: "multiprocessing.Queue[Tuple[int, bytes, float]]",
) -> None:
    """Drain kernel tasks until the ``None`` sentinel arrives.

    Results are pickled *explicitly* before being enqueued: task bodies
    return fresh arrays, but pickling inside the worker (rather than in the
    queue's feeder thread) guarantees every byte is copied out of shared
    memory before any attached segment can be closed or unlinked.
    """
    while True:
        item = task_queue.get()
        if item is None:
            break
        task_id, blob = item
        started = time.perf_counter()
        try:
            fn, payload = pickle.loads(blob)
            value = fn(payload)
            result = pickle.dumps((True, value), protocol=-1)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                result = pickle.dumps((False, exc), protocol=-1)
            except Exception:
                result = pickle.dumps(
                    (False, RuntimeError(f"unpicklable worker error: {exc!r}")),
                    protocol=-1,
                )
        result_queue.put((task_id, result, time.perf_counter() - started))
    reset_worker_caches()


class TaskScheduler:
    """A bounded pool of worker processes with ordered result collection.

    ``workers`` may be an int, ``"auto"`` (the runbook rule ``min(cores - 2,
    RAM / 4GB)``, floor 1) or ``None`` (same as auto, after the
    ``REPRO_WORKERS`` override).  The pool spawns lazily on the first
    parallel :meth:`map_kernel` and is shut down by :meth:`shutdown`
    (non-terminal) or :meth:`close` (terminal, also unlinks every live
    shared-memory segment).

    A pool larger than the CPUs this process may use is pure overhead —
    fork, pickling and queue transport with nothing to run them on (measured
    0.67× vs serial at 2 workers on one core) — so the scheduler degrades to
    one inline-serial worker when :func:`usable_cpu_count` is 1.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = None,
        name: str = "relalg",
    ) -> None:
        self.workers = resolve_worker_count(workers)
        if usable_cpu_count() <= 1:
            self.workers = 1
        self.name = name
        #: Ledger of every shm segment published through this scheduler's
        #: arenas; :meth:`close` force-unlinks whatever is still alive.
        self.segments = SegmentRegistry()
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._task_queue = None
        self._result_queue = None
        self._closed = False
        self._lock = threading.Lock()
        self._kernel_lock = threading.Lock()
        self._tasks_submitted = 0
        self._tasks_completed = 0
        self._tasks_inline = 0
        self._tasks_process = 0
        self._process_pool_crashes = 0
        self._busy_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_procs(self) -> bool:
        """Spawn the persistent worker-process pool (idempotent).

        Returns False when the scheduler is closed — the caller degrades to
        inline execution.  Called only under ``_kernel_lock``.
        """
        with self._lock:
            if self._closed:
                return False
            if self._procs:
                return True
        ctx = multiprocessing.get_context(_start_method())
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        procs = []
        for index in range(self.workers):
            proc = ctx.Process(
                target=_process_worker_main,
                args=(task_queue, result_queue),
                name=f"{self.name}-kernel-{index}",
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        with self._lock:
            if self._closed:  # closed while spawning: tear straight down
                pass
            else:
                self._procs = procs
                self._task_queue = task_queue
                self._result_queue = result_queue
                return True
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
        return False

    def _stop_procs(self, crashed: bool = False) -> None:
        """Stop the worker processes (graceful sentinels, then terminate)."""
        with self._lock:
            procs, self._procs = self._procs, []
            task_queue, self._task_queue = self._task_queue, None
            result_queue, self._result_queue = self._result_queue, None
            if crashed:
                self._process_pool_crashes += 1
        if not procs:
            return
        if not crashed and task_queue is not None:
            for _ in procs:
                try:
                    task_queue.put_nowait(None)
                except Exception:  # pragma: no cover - full/broken queue
                    break
        deadline = time.monotonic() + (0.0 if crashed else 2.0)
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
            if hasattr(proc, "close"):
                try:
                    proc.close()
                except ValueError:  # pragma: no cover - still alive
                    pass
        for q in (task_queue, result_queue):
            if q is not None:
                try:
                    q.close()
                    q.join_thread()
                except Exception:  # pragma: no cover
                    pass

    def shutdown(self) -> None:
        """Park the worker processes (the scheduler is reusable).

        Idempotent and thread-safe: calling it any number of times — or
        concurrently — parks the pool exactly once; it respawns lazily on the
        next parallel ``map_kernel`` unless the scheduler was :meth:`close`d.
        Shared-memory segments are *not* touched: they are scoped to in-
        flight batches by their arenas, so between batches there is nothing
        to free, and a concurrent batch's inputs must survive a shutdown.
        """
        self._stop_procs()

    def close(self) -> None:
        """Shut down *terminally*: no worker is ever spawned again.

        After ``close`` the scheduler still accepts ``map_kernel`` calls but
        runs them inline on the caller — the graceful-degradation path — so
        an error path that closes a shared scheduler can never deadlock
        callers or leak a lazily respawned pool.  Every shared-memory segment
        still registered with this scheduler is unlinked deterministically.
        Idempotent, like :meth:`shutdown`.
        """
        with self._lock:
            self._closed = True
        self.shutdown()
        self.segments.unlink_all()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; the pool will not respawn."""
        with self._lock:
            return self._closed

    def __enter__(self) -> "TaskScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Context-managed schedulers are scoped to the block: leaving it —
        # normally or through an exception — must not leave workers behind
        # nor allow a later stray ``map_kernel`` to respawn them.
        self.close()

    # ------------------------------------------------------------------ #
    # Task execution
    # ------------------------------------------------------------------ #
    @property
    def parallel(self) -> bool:
        """True when this scheduler actually runs tasks on workers."""
        return self.workers > 1 and not self._closed

    def new_arena(self) -> ShmArena:
        """A shared-memory arena whose segments this scheduler tracks."""
        return ShmArena(self.segments)

    def _run_inline(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        started = time.perf_counter()
        results = [fn(item) for item in items]
        elapsed = time.perf_counter() - started
        with self._lock:
            self._tasks_inline += len(items)
            self._busy_seconds += elapsed
        return results

    def map_kernel(self, fn: Callable[[T], R], payloads: Sequence[T]) -> List[R]:
        """Run a picklable kernel ``fn`` over ``payloads`` on worker processes.

        ``fn`` must be a top-level function and each payload picklable.
        Results come back in submission order.  Degrades to inline execution
        — still bit-identical, merely serial — whenever the process tier is
        unavailable: serial scheduler, single payload, closed scheduler,
        unpicklable task, or a worker crash mid-batch (the crashed pool is
        torn down, finished results are kept, missing tasks re-run inline,
        and the pool respawns on the next call).
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if not self.parallel or len(payloads) == 1:
            return self._run_inline(fn, payloads)
        try:
            blobs = [pickle.dumps((fn, payload), protocol=-1) for payload in payloads]
        except Exception:
            # Unpicklable task: the caller's bug, but never the request's
            # problem — degrade to the serial path.
            return self._run_inline(fn, payloads)

        # One batch at a time on the process tier: batches from concurrent
        # requests serialize at the batch level while their tasks still fill
        # all workers.
        with self._kernel_lock:
            if not self._ensure_procs():
                return self._run_inline(fn, payloads)
            task_queue = self._task_queue
            result_queue = self._result_queue
            with self._lock:
                self._tasks_submitted += len(payloads)
            for task_id, blob in enumerate(blobs):
                task_queue.put((task_id, blob))
            outcomes: Dict[int, Any] = {}
            busy = 0.0
            crashed = False
            while len(outcomes) < len(payloads):
                try:
                    task_id, result, seconds = result_queue.get(timeout=0.1)
                except queue_module.Empty:
                    if any(not proc.is_alive() for proc in self._procs):
                        crashed = True
                        break
                    continue
                outcomes[task_id] = pickle.loads(result)
                busy += seconds
            if crashed:
                # Salvage whatever finished before the death was noticed.
                while True:
                    try:
                        task_id, result, seconds = result_queue.get_nowait()
                    except (queue_module.Empty, OSError, EOFError):
                        break
                    outcomes[task_id] = pickle.loads(result)
                    busy += seconds
                self._stop_procs(crashed=True)
            with self._lock:
                self._tasks_completed += len(outcomes)
                self._tasks_process += len(outcomes)
                self._busy_seconds += busy

        missing = [i for i in range(len(payloads)) if i not in outcomes]
        if missing:
            # Crash path: re-run lost tasks inline (kernels are pure, so a
            # partially-run task is safe to repeat).
            for index, value in zip(
                missing, self._run_inline(fn, [payloads[i] for i in missing])
            ):
                outcomes[index] = (True, value)
        failure: Optional[BaseException] = None
        results: List[R] = []
        for index in range(len(payloads)):
            ok, value = outcomes[index]
            if ok:
                results.append(value)
            elif failure is None:
                failure = value
        if failure is not None:
            raise failure
        return results

    # ------------------------------------------------------------------ #
    # Instrumentation
    # ------------------------------------------------------------------ #
    def stats(self) -> SchedulerStats:
        """A consistent snapshot of all counters."""
        with self._lock:
            return SchedulerStats(
                workers=self.workers,
                tasks_submitted=self._tasks_submitted,
                tasks_completed=self._tasks_completed,
                tasks_inline=self._tasks_inline,
                busy_seconds=self._busy_seconds,
                tasks_process=self._tasks_process,
                process_pool_crashes=self._process_pool_crashes,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskScheduler(workers={self.workers}, name={self.name!r})"
