"""Admission control for the query service.

Each admitted query executes on the host's cores (the caller's process, or
a sharded coordinator's scatter); admitting an unbounded number of
concurrent queries would just thrash them and grow latency without bound.
The :class:`AdmissionController` in front of execution provides:

* a **concurrency bound** — at most ``max_concurrent`` queries hold an
  execution slot at a time;
* a **bounded wait queue** — at most ``max_queued`` callers may wait for a
  slot; beyond that, callers are rejected immediately with
  :class:`BackpressureError` (fail fast beats queueing collapse);
* **per-client fairness** — waiting callers are granted slots round-robin
  *across clients* (FIFO within a client), so one chatty client cannot
  starve the rest however many requests it floods in;
* **backpressure statistics** — admitted counts, *sheds* (queue full)
  separated from *timeouts* (waiter deadline expired), the queue's
  high-water mark and per-client tallies, surfaced through the service's
  stats endpoint.

Each waiting ticket owns its own :class:`threading.Event`: a grant wakes
exactly the granted waiter, never the whole queue.  (The first version
broadcast ``notify_all`` on a shared condition for every grant, waking every
waiter O(queue) times per release — a thundering herd that inflated tail
latency under exactly the load the latency harness measures.  The
``wakeups`` counter exists so regression tests can pin the new bound:
one wakeup per grant.)

The controller is synchronous (callers block in ``acquire``) because the
service's execution path is synchronous; the fairness schedule is computed
under the controller's lock, so grants are deterministic given the arrival
order.  All deadlines and wait durations are read from the shared monotonic
clock (:func:`repro.clock.monotonic_s`), the same clock every request
trace is stamped with.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, Optional, Set, Tuple

from repro.clock import monotonic_s

#: Per-client stat maps are folded into an ``<other>`` bucket beyond this
#: many distinct clients, so per-request client ids cannot grow the stats
#: without bound in a long-lived server.
PER_CLIENT_STATS_CAP = 1024


class BackpressureError(RuntimeError):
    """Raised when a request must be rejected instead of queueing further.

    ``kind`` distinguishes the two rejection classes the stats also
    separate: ``"shed"`` (the wait queue was full — load shedding) versus
    ``"timeout"`` (the caller's deadline expired while waiting).
    ``waited_s`` is how long the caller waited before rejection, on the
    shared monotonic clock, so traces of shed requests still account their
    queue time.
    """

    def __init__(
        self, message: str, kind: str = "shed", waited_s: float = 0.0
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.waited_s = waited_s


@dataclass
class AdmissionStats:
    """Counters of the admission controller."""

    admitted: int = 0
    #: Requests rejected immediately because the wait queue was full.  This
    #: is the numerator of a load generator's *shed rate*.
    shed: int = 0
    #: Requests rejected because their admission deadline expired while
    #: queued.  A timeout is a latency failure, not a load-shedding
    #: decision — conflating the two made shed-rate unmeasurable.
    timed_out: int = 0
    completed: int = 0
    #: Waiter wakeups signalled by grants.  With per-ticket events this is
    #: exactly one per queued grant; the thundering-herd regression test
    #: pins it (the old shared-condition broadcast woke O(queue) waiters
    #: per release).
    wakeups: int = 0
    max_queue_depth: int = 0
    max_in_flight: int = 0
    per_client_admitted: Dict[str, int] = field(default_factory=dict)
    per_client_rejected: Dict[str, int] = field(default_factory=dict)


class AdmissionController:
    """Bounded, client-fair gate in front of the execution pool."""

    def __init__(self, max_concurrent: int = 4, max_queued: int = 64) -> None:
        self.max_concurrent = max(1, int(max_concurrent))
        self.max_queued = max(0, int(max_queued))
        self._lock = threading.Lock()
        self._in_flight = 0
        #: Waiting tickets per client, FIFO.  ``OrderedDict`` keeps client
        #: registration order stable for the round-robin rotation.
        self._queues: "OrderedDict[str, Deque[int]]" = OrderedDict()
        #: Round-robin cursor: the client *after* which the next grant scans.
        self._rotation: Deque[str] = deque()
        #: Tickets that have been granted a slot but not yet picked up.
        self._granted: Set[int] = set()
        #: Ticket → the event its waiter blocks on.  A grant sets exactly
        #: this ticket's event (no shared condition, no broadcast).
        self._events: Dict[int, threading.Event] = {}
        self._next_ticket = 0
        self.stats = AdmissionStats()

    # ------------------------------------------------------------------ #
    # Internal scheduling (callers hold the lock)
    # ------------------------------------------------------------------ #
    def _queued_count(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def _grant_next(self) -> None:
        """Hand free slots to waiting tickets, round-robin across clients.

        Each grant wakes only the granted ticket's own event — a release
        with ``k`` free slots causes exactly ``k`` wakeups however long the
        queue is.
        """
        while self._in_flight + len(self._granted) < self.max_concurrent:
            granted_ticket: Optional[int] = None
            for _ in range(len(self._rotation)):
                client = self._rotation[0]
                self._rotation.rotate(-1)
                queue = self._queues.get(client)
                if queue:
                    granted_ticket = queue.popleft()
                    break
            if granted_ticket is None:
                break
            self._granted.add(granted_ticket)
            event = self._events.get(granted_ticket)
            if event is not None:
                self.stats.wakeups += 1
                event.set()
        self._prune_idle_clients()

    def _prune_idle_clients(self) -> None:
        """Drop clients with no waiting tickets from the scheduling state.

        Client names may be per-connection (or even per-request) ids; keeping
        every name ever seen would grow ``_queues``/``_rotation`` without
        bound and make each grant scan all of history.  A pruned client is
        simply re-registered on its next ``acquire``.
        """
        idle = [client for client, queue in self._queues.items() if not queue]
        for client in idle:
            del self._queues[client]
        if idle:
            idle_set = set(idle)
            self._rotation = deque(c for c in self._rotation if c not in idle_set)

    def _register_client(self, client: str) -> Deque[int]:
        queue = self._queues.get(client)
        if queue is None:
            queue = deque()
            self._queues[client] = queue
            self._rotation.append(client)
        return queue

    def _bump_client_stat(self, per_client: Dict[str, int], client: str) -> None:
        if client not in per_client and len(per_client) >= PER_CLIENT_STATS_CAP:
            client = "<other>"
        per_client[client] = per_client.get(client, 0) + 1

    def _admit_locked(self, client: str) -> None:
        """Book-keeping of a successful admission (caller holds the lock)."""
        self._in_flight += 1
        self.stats.admitted += 1
        self.stats.max_in_flight = max(self.stats.max_in_flight, self._in_flight)
        self._bump_client_stat(self.stats.per_client_admitted, client)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def acquire(self, client: str = "default", timeout: Optional[float] = None) -> float:
        """Block until an execution slot is granted (fairly) to ``client``.

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
        started = monotonic_s()
        deadline = None if timeout is None else started + timeout
        with self._lock:
            if (
                self._in_flight + len(self._granted) < self.max_concurrent
                and self._queued_count() == 0
            ):
                # Fast path: free slot, nobody waiting — no ticket needed.
                # Granted-but-unclaimed tickets still reserve their slots.
                self._admit_locked(client)
                return 0.0
            if self._queued_count() >= self.max_queued:
                self.stats.shed += 1
                self._bump_client_stat(self.stats.per_client_rejected, client)
                raise BackpressureError(
                    f"admission queue full ({self.max_queued} waiting); "
                    f"client {client!r} shed",
                    kind="shed",
                    waited_s=0.0,
                )
            ticket = self._next_ticket
            self._next_ticket += 1
            event = threading.Event()
            self._events[ticket] = event
            queue = self._register_client(client)
            queue.append(ticket)
            self.stats.max_queue_depth = max(self.stats.max_queue_depth, self._queued_count())
            self._grant_next()

        # Wait outside the lock on this ticket's own event.  The deadline is
        # absolute: the single wait covers the whole remaining budget, and a
        # grant wakes exactly this waiter (see _grant_next).
        remaining = None if deadline is None else max(0.0, deadline - monotonic_s())
        event.wait(timeout=remaining)
        with self._lock:
            if ticket in self._granted:
                # Granted — possibly just after the deadline expired; the
                # slot is already reserved for us, so claim it either way.
                self._granted.discard(ticket)
                self._events.pop(ticket, None)
                self._admit_locked(client)
                return monotonic_s() - started
            # Timed out: withdraw the ticket wherever it is.
            try:
                queue.remove(ticket)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._events.pop(ticket, None)
            self._prune_idle_clients()
            waited = monotonic_s() - started
            self.stats.timed_out += 1
            self._bump_client_stat(self.stats.per_client_rejected, client)
            raise BackpressureError(
                f"client {client!r} timed out waiting for an execution slot",
                kind="timeout",
                waited_s=waited,
            )

    def release(self) -> None:
        """Return an execution slot and wake the next fair waiter."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            self.stats.completed += 1
            self._grant_next()

    @contextmanager
    def admit(self, client: str = "default", timeout: Optional[float] = None) -> Iterator[float]:
        """``with controller.admit(client) as queue_wait_s: execute(...)``.

        Yields the seconds the caller waited for its slot (``acquire``'s
        return value), so serving code can charge the queue-wait stage of
        the request trace without a second clock read.
        """
        waited = self.acquire(client, timeout=timeout)
        try:
            yield waited
        finally:
            self.release()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued_count()

    def snapshot(self) -> Tuple[int, int]:
        """(in_flight, queued) under one lock acquisition."""
        with self._lock:
            return self._in_flight, self._queued_count()

    def stats_snapshot(self) -> AdmissionStats:
        """A consistent, independent copy of the counters.

        ``self.stats`` is the live object mutated under the controller lock;
        handing it to a monitoring thread would let its per-client dicts
        change size mid-iteration.  Readers get this copy instead.
        """
        with self._lock:
            return AdmissionStats(
                admitted=self.stats.admitted,
                shed=self.stats.shed,
                timed_out=self.stats.timed_out,
                completed=self.stats.completed,
                wakeups=self.stats.wakeups,
                max_queue_depth=self.stats.max_queue_depth,
                max_in_flight=self.stats.max_in_flight,
                per_client_admitted=dict(self.stats.per_client_admitted),
                per_client_rejected=dict(self.stats.per_client_rejected),
            )
