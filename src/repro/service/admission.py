"""Admission control for the query service: one FIFO gate.

Each admitted query executes on the host's cores; admitting an unbounded
number of concurrent queries would just thrash them and grow latency
without bound.  The :class:`AdmissionController` lets at most
:data:`MAX_CONCURRENT` queries hold an execution slot, lets at most
:data:`MAX_QUEUED` callers wait for one in arrival order, and rejects anyone
beyond that immediately with :class:`BackpressureError` (fail fast beats
queueing collapse).

Each waiter blocks on its own :class:`threading.Event`, and a release hands
its slot straight to the head waiter: a grant wakes exactly one waiter, and
a newcomer arriving in between cannot take the slot first.  Waits are read
from ``time.perf_counter``, the clock every request trace is stamped with.
The gate keeps no counters: the service counts its rejections
(:class:`~repro.service.service.ServiceStats`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Iterator, Optional

#: Concurrent executions admitted at once.
MAX_CONCURRENT = 8
#: Callers allowed to wait for a slot before load shedding kicks in.
MAX_QUEUED = 64


class BackpressureError(RuntimeError):
    """Raised when a request must be rejected instead of queueing further.

    ``kind`` is ``"shed"`` (the wait queue was full — load shedding) or
    ``"timeout"`` (the caller's deadline expired while waiting).
    ``waited_s`` is how long the caller waited before rejection, on the
    shared monotonic clock, so traces of rejected requests still account
    their queue time.
    """

    def __init__(
        self, message: str, kind: str = "shed", waited_s: float = 0.0
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.waited_s = waited_s


class AdmissionController:
    """Bounded FIFO gate in front of query execution."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight = 0
        #: One event per waiter, in arrival order.  A waiter is queued only
        #: while every slot is held, and ``release`` hands its slot to the
        #: head waiter without freeing it.
        self._waiters: Deque[threading.Event] = deque()

    def acquire(self, timeout: Optional[float] = None) -> float:
        """Block until an execution slot is granted.

        Returns the seconds spent waiting for the slot (``0.0`` on the
        uncontended fast path), on the shared monotonic clock — the
        request trace's ``queue_wait_s``.

        Raises
        ------
        BackpressureError
            With ``kind="shed"`` if the wait queue is at capacity, or
            ``kind="timeout"`` if the optional ``timeout`` expires before a
            slot is granted.
        """
        started = time.perf_counter()
        with self._lock:
            if self._in_flight < MAX_CONCURRENT and not self._waiters:
                self._in_flight += 1
                return 0.0
            if len(self._waiters) >= MAX_QUEUED:
                raise BackpressureError(
                    f"admission queue full ({MAX_QUEUED} waiting); request shed",
                    kind="shed",
                )
            event = threading.Event()
            self._waiters.append(event)

        event.wait(timeout=timeout)
        with self._lock:
            # A slot handed over just after the deadline is still ours;
            # ``release`` sets events under this lock, so the check is exact.
            if event.is_set():
                return time.perf_counter() - started
            self._waiters.remove(event)
        raise BackpressureError(
            "timed out waiting for an execution slot",
            kind="timeout",
            waited_s=time.perf_counter() - started,
        )

    def release(self) -> None:
        """Return an execution slot, or hand it to the head waiter."""
        with self._lock:
            if self._waiters:
                self._waiters.popleft().set()
            else:
                self._in_flight = max(0, self._in_flight - 1)

    @contextmanager
    def admit(self, timeout: Optional[float] = None) -> Iterator[float]:
        """``with controller.admit() as queue_wait_s: execute(...)``.

        Yields the seconds the caller waited for its slot (``acquire``'s
        return value), so serving code can charge the queue-wait stage of
        the request trace without a second clock read.
        """
        waited = self.acquire(timeout=timeout)
        try:
            yield waited
        finally:
            self.release()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._waiters)
