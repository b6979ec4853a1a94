"""The shared morsel-task scheduler: a process-backed worker pool.

One :class:`TaskScheduler` instance is shared by every layer that wants
intra-operator parallelism — the executor's morsel pipeline, the parallel
join/aggregation kernels and the sampling validator all dispatch *morsel
tasks* into the same bounded pool, so a 4-worker configuration parallelises a
single heavy query just as well as a batch of queries.

The pool has two tiers:

* **Kernel tasks** (:meth:`TaskScheduler.map_kernel`) run on a persistent
  pool of **worker processes** (a thread pool is GIL-bound for these
  kernels and lost to serial).  Task functions must be picklable top-level
  functions (the kernel bodies in :mod:`repro.relalg.joins` /
  :mod:`~repro.relalg.aggregate` / :mod:`~repro.relalg.predicates`), and
  their payloads carry :mod:`repro.relalg.shm` descriptors instead of
  arrays: column data crosses the process boundary through
  ``multiprocessing.shared_memory`` exactly once, and workers attach
  zero-copy views.
* **Coordination tasks** (:meth:`TaskScheduler.map`) — arbitrary callables,
  closures included — run on a thread pool (or inline).  They coordinate
  (the join output's column gather); they are not where the cycles go.

Design constraints, in order:

* **Determinism** — both ``map`` flavours return results in submission
  order, so a parallel kernel that concatenates its task results is
  bit-identical to the serial loop over the same tasks.  Workers never
  decide output order.
* **Graceful degradation** — ``workers <= 1``, a single task, a closed
  scheduler, or a *crashed worker pool* all degrade to inline execution of
  exactly the serial kernel; a query never fails because parallelism did.
* **Deterministic cleanup** — every shared-memory segment a kernel published
  through this scheduler is tracked by its refcounted
  :class:`~repro.relalg.shm.SegmentRegistry`; :meth:`close` force-unlinks
  whatever is still alive, so no segment outlives the scheduler even on
  error or crash paths.

Adaptive morsel sizing: the scheduler owns an :class:`AdaptiveMorselSizer`
that, per pipeline stage, grows the morsel row count until the measured
per-task overhead (queueing + descriptor pickling + result transport) drops
below 5% of task time.  Sizing only changes how work is chunked, never what
is computed — every chunk grid is bit-identical by the kernel contracts.

Instrumentation: the scheduler counts submitted/completed/inline/process
tasks and busy seconds, and tracks the current and high-water queue depth.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

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


def default_worker_count() -> int:
    """Auto-sized worker count: ``min(cores - 2, RAM / 4GB)``, floor 1.

    Two cores stay reserved for the coordinating threads (planner, service)
    and each worker is budgeted 4 GB of RAM, per the large-scale
    evaluation runbook.  On a single-core host the rule bottoms out at one
    worker, i.e. inline serial execution — a pool there is pure overhead.
    ``REPRO_WORKERS`` overrides the rule outright.
    """
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    by_cores = (os.cpu_count() or 1) - 2
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


# --------------------------------------------------------------------------- #
# Adaptive morsel sizing
# --------------------------------------------------------------------------- #
@dataclass
class StageSizing:
    """Sizing state of one pipeline stage."""

    morsel_rows: int
    observations: int = 0
    #: EWMA of the measured per-task overhead fraction at the current size.
    overhead_fraction: float = 0.0
    #: Every size this stage has used, in order (growth history).
    sizes: List[int] = field(default_factory=list)


class AdaptiveMorselSizer:
    """Grow morsel sizes until per-task overhead is below a target fraction.

    For every stage label the sizer starts from the caller's default morsel
    rows and doubles the size whenever a batch's measured overhead fraction —
    ``(wall · effective workers − worker busy seconds) / (wall · effective
    workers)``, i.e. the share of pool capacity *not* spent inside task
    bodies — stays above ``target_overhead``.  Growth is monotone and clamped
    to ``[min_rows, max_rows]``, so the size converges after at most
    ``log2(max/min)`` batches; stages are independent (“re-estimated per
    stage”).

    Sizing is a pure scheduling hint: every kernel is bit-identical across
    morsel sizes (group-aligned aggregation chunks, elementwise predicate
    morsels), so the sizer can never affect results, only task granularity.
    """

    def __init__(
        self,
        min_rows: int = 16_384,
        max_rows: int = 2_097_152,
        target_overhead: float = 0.05,
        smoothing: float = 0.5,
    ) -> None:
        self.min_rows = int(min_rows)
        self.max_rows = int(max_rows)
        self.target_overhead = float(target_overhead)
        self.smoothing = float(smoothing)
        self._lock = threading.Lock()
        self._stages: Dict[str, StageSizing] = {}

    def _stage(self, stage: str, default_rows: int) -> StageSizing:
        state = self._stages.get(stage)
        if state is None:
            rows = max(self.min_rows, min(self.max_rows, int(default_rows)))
            state = StageSizing(morsel_rows=rows, sizes=[rows])
            self._stages[stage] = state
        return state

    def morsel_rows(self, stage: str, default_rows: int) -> int:
        """The current morsel size of ``stage`` (seeded from ``default_rows``)."""
        with self._lock:
            return self._stage(stage, default_rows).morsel_rows

    def observe(
        self,
        stage: str,
        tasks: int,
        wall_seconds: float,
        busy_seconds: float,
        workers: int,
    ) -> None:
        """Fold one batch's measurements into the stage's size decision."""
        if tasks <= 0 or wall_seconds <= 0:
            return
        effective = max(1, min(workers, tasks))
        capacity = wall_seconds * effective
        fraction = max(0.0, capacity - busy_seconds) / capacity
        with self._lock:
            state = self._stage(stage, self.min_rows)
            if state.observations == 0:
                state.overhead_fraction = fraction
            else:
                state.overhead_fraction += self.smoothing * (
                    fraction - state.overhead_fraction
                )
            state.observations += 1
            if (
                state.overhead_fraction > self.target_overhead
                and state.morsel_rows < self.max_rows
                and tasks > 1
            ):
                state.morsel_rows = min(self.max_rows, state.morsel_rows * 2)
                state.sizes.append(state.morsel_rows)

    def snapshot(self) -> Dict[str, StageSizing]:
        with self._lock:
            return {
                stage: StageSizing(
                    morsel_rows=state.morsel_rows,
                    observations=state.observations,
                    overhead_fraction=state.overhead_fraction,
                    sizes=list(state.sizes),
                )
                for stage, state in self._stages.items()
            }


# --------------------------------------------------------------------------- #
# Instrumentation dataclasses
# --------------------------------------------------------------------------- #
@dataclass
class SchedulerStats:
    """Snapshot of the scheduler's lifetime counters."""

    workers: int
    tasks_submitted: int = 0
    tasks_completed: int = 0
    tasks_inline: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0
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
    """A bounded worker pool with ordered result collection.

    ``workers`` may be an int, ``"auto"`` (the runbook rule ``min(cores - 2,
    RAM / 4GB)``, floor 1) or ``None`` (same as auto, after the
    ``REPRO_WORKERS`` override).  Kernel tasks (``map_kernel``) run on
    worker processes over shared-memory columns; coordination ``map`` uses
    threads.  Both pools spawn lazily and are shut down by :meth:`shutdown`
    (non-terminal) or :meth:`close` (terminal, also unlinks every live
    shared-memory segment).

    On a single-core host a pool is pure overhead — fork, pickling and
    queue transport with zero available parallelism (measured 0.67× vs
    serial at 2 workers) — so the scheduler degrades to one inline-serial
    worker when ``os.cpu_count()`` is 1.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = None,
        name: str = "relalg",
        sizer: Optional[AdaptiveMorselSizer] = None,
    ) -> None:
        self.workers = resolve_worker_count(workers)
        if (os.cpu_count() or 1) <= 1:
            self.workers = 1
        self.name = name
        #: Ledger of every shm segment published through this scheduler's
        #: arenas; :meth:`close` force-unlinks whatever is still alive.
        self.segments = SegmentRegistry()
        #: Per-stage adaptive morsel sizing (shared by all kernels).
        self.sizer = sizer if sizer is not None else AdaptiveMorselSizer()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._task_queue = None
        self._result_queue = None
        self._closed = False
        self._lock = threading.Lock()
        self._kernel_lock = threading.Lock()
        self._in_worker = threading.local()
        self._tasks_submitted = 0
        self._tasks_completed = 0
        self._tasks_inline = 0
        self._tasks_process = 0
        self._process_pool_crashes = 0
        self._queue_depth = 0
        self._max_queue_depth = 0
        self._busy_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> Optional[ThreadPoolExecutor]:
        with self._lock:
            if self._closed:
                # A terminally-closed scheduler never respawns workers; the
                # caller degrades to the inline path.
                return None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix=f"{self.name}-morsel"
                )
            return self._pool

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
        """Park the worker threads and processes (the scheduler is reusable).

        Idempotent and thread-safe: calling it any number of times — or
        concurrently — parks the pools exactly once; they respawn lazily on
        the next parallel map unless the scheduler was :meth:`close`d.
        Shared-memory segments are *not* touched: they are scoped to in-
        flight kernels by their arenas, so between maps there is nothing to
        free, and a concurrent map's inputs must survive a shutdown.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._stop_procs()

    def close(self) -> None:
        """Shut down *terminally*: no worker is ever spawned again.

        After ``close`` the scheduler still accepts ``map`` calls but runs
        them inline on the caller — the graceful-degradation path — so an
        error path that closes a shared scheduler can never deadlock callers
        or leak a lazily respawned pool.  Every shared-memory segment still
        registered with this scheduler is unlinked deterministically (normal
        maps release theirs scope-by-scope; this catches crash and error
        stragglers).  Idempotent, like :meth:`shutdown`.
        """
        with self._lock:
            self._closed = True
        self.shutdown()
        self.segments.unlink_all()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; the pools will not respawn."""
        with self._lock:
            return self._closed

    def __enter__(self) -> "TaskScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Context-managed schedulers are scoped to the block: leaving it —
        # normally or through an exception — must not leave workers behind
        # nor allow a later stray ``map`` to respawn them.
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

    def adaptive_morsel_rows(self, stage: Optional[str], default_rows: int) -> int:
        """The morsel size a kernel should use for ``stage``.

        ``stage=None`` (callers that pin an explicit size, e.g. the property
        tests sweeping morsel grids) bypasses adaptation entirely.
        """
        if stage is None or not self.parallel:
            return default_rows
        return self.sizer.morsel_rows(stage, default_rows)

    def _run_inline(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        started = time.perf_counter()
        results = [fn(item) for item in items]
        elapsed = time.perf_counter() - started
        with self._lock:
            self._tasks_inline += len(items)
            self._busy_seconds += elapsed
        return results

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Run ``fn`` over ``items`` on the *thread* tier, in submission order.

        This is the coordination tier: arbitrary callables are accepted
        (closures included).  Heavy kernels should go through
        :meth:`map_kernel` instead, which reaches the worker processes.
        """
        items = list(items)
        if not items:
            return []
        # Inline when serial, trivially small, or already on a worker thread
        # (re-submitting from a worker could deadlock a saturated pool).
        if not self.parallel or len(items) == 1 or getattr(self._in_worker, "flag", False):
            return self._run_inline(fn, items)

        pool = self._ensure_pool()
        if pool is None:  # closed concurrently: degrade to inline execution
            return self._run_inline(fn, items)
        with self._lock:
            self._tasks_submitted += len(items)
            self._queue_depth += len(items)
            self._max_queue_depth = max(self._max_queue_depth, self._queue_depth)

        def run(item: T) -> R:
            self._in_worker.flag = True
            started = time.perf_counter()
            try:
                return fn(item)
            finally:
                self._in_worker.flag = False
                elapsed = time.perf_counter() - started
                with self._lock:
                    self._tasks_completed += 1
                    self._queue_depth -= 1
                    self._busy_seconds += elapsed

        futures = [pool.submit(run, item) for item in items]
        return [future.result() for future in futures]

    def map_kernel(
        self,
        fn: Callable[[T], R],
        payloads: Sequence[T],
        stage: Optional[str] = None,
    ) -> List[R]:
        """Run a picklable kernel ``fn`` over ``payloads`` on worker processes.

        ``fn`` must be a top-level function and each payload picklable
        (kernels pass :mod:`repro.relalg.shm` descriptors plus small
        scalars).  Results come back in submission order.  Degrades to
        inline execution — still bit-identical, merely serial — whenever the
        process tier is unavailable: serial scheduler, single payload, closed
        scheduler, unpicklable task, or a worker crash mid-batch (the crashed
        pool is torn down, finished results are kept, missing tasks re-run
        inline, and the pool respawns on the next call).  With ``stage``
        given, the batch's wall/busy seconds feed the
        :class:`AdaptiveMorselSizer` for that stage.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if (
            not self.parallel
            or len(payloads) == 1
            or getattr(self._in_worker, "flag", False)
        ):
            return self._map_kernel_fallback(fn, payloads, stage)
        try:
            blobs = [pickle.dumps((fn, payload), protocol=-1) for payload in payloads]
        except Exception:
            # Unpicklable task: the kernel authors' bug, but never the
            # query's problem — degrade to the serial path.
            return self._map_kernel_fallback(fn, payloads, stage)

        # One batch at a time on the process tier: morsel batches are bursts
        # of many tasks, so batches from concurrent queries serialize at the
        # batch level while their tasks still fill all workers.
        with self._kernel_lock:
            if not self._ensure_procs():
                return self._map_kernel_fallback(fn, payloads, stage)
            task_queue = self._task_queue
            result_queue = self._result_queue
            with self._lock:
                self._tasks_submitted += len(payloads)
                self._queue_depth += len(payloads)
                self._max_queue_depth = max(self._max_queue_depth, self._queue_depth)
            started = time.perf_counter()
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
            wall = time.perf_counter() - started
            with self._lock:
                self._tasks_completed += len(outcomes)
                self._tasks_process += len(outcomes)
                self._queue_depth -= len(payloads)
                self._busy_seconds += busy

        missing = [i for i in range(len(payloads)) if i not in outcomes]
        if missing:
            # Crash path: re-run lost tasks inline (kernels are pure, so a
            # partially-run task is safe to repeat).
            for index, value in zip(
                missing, self._run_inline(fn, [payloads[i] for i in missing])
            ):
                outcomes[index] = (True, value)
        if stage is not None:
            self.sizer.observe(stage, len(payloads), wall, busy, self.workers)
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

    def _map_kernel_fallback(
        self,
        fn: Callable[[T], R],
        payloads: Sequence[T],
        stage: Optional[str],
    ) -> List[R]:
        started = time.perf_counter()
        results = self._run_inline(fn, payloads)
        if stage is not None and len(payloads) > 1:
            elapsed = time.perf_counter() - started
            self.sizer.observe(stage, len(payloads), elapsed, elapsed, 1)
        return results

    # ------------------------------------------------------------------ #
    # Instrumentation
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Tasks currently queued or running on the pools."""
        with self._lock:
            return self._queue_depth

    @property
    def max_queue_depth(self) -> int:
        """High-water mark of :attr:`queue_depth` over the scheduler's lifetime."""
        with self._lock:
            return self._max_queue_depth

    def stats(self) -> SchedulerStats:
        """A consistent snapshot of all counters."""
        with self._lock:
            return SchedulerStats(
                workers=self.workers,
                tasks_submitted=self._tasks_submitted,
                tasks_completed=self._tasks_completed,
                tasks_inline=self._tasks_inline,
                queue_depth=self._queue_depth,
                max_queue_depth=self._max_queue_depth,
                busy_seconds=self._busy_seconds,
                tasks_process=self._tasks_process,
                process_pool_crashes=self._process_pool_crashes,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskScheduler(workers={self.workers}, "
            f"queue_depth={self.queue_depth})"
        )


#: Process-wide default scheduler (created on first use, serial by default
#: unless ``REPRO_WORKERS`` says otherwise).
_default_scheduler: Optional[TaskScheduler] = None
_default_lock = threading.Lock()


def get_default_scheduler() -> TaskScheduler:
    """The process-wide scheduler shared by callers that do not pass one."""
    global _default_scheduler
    with _default_lock:
        if _default_scheduler is None:
            _default_scheduler = TaskScheduler()
        return _default_scheduler


def set_default_scheduler(scheduler: Optional[TaskScheduler]) -> None:
    """Replace the process-wide scheduler (``None`` resets to lazy creation)."""
    global _default_scheduler
    with _default_lock:
        _default_scheduler = scheduler
