"""The one monotonic clock every latency number in the repo is read from.

Before this module existed the serving stack mixed two clocks: admission
deadlines were computed with ``time.monotonic`` while every latency/trace
measurement used ``time.perf_counter``.  Both are monotonic, but they are
*different* clocks (different epochs, potentially different resolution), so
an admission deadline and a request trace were not directly comparable —
"how much of this request's latency budget went to queueing" could not be
answered by subtracting stamps.

``monotonic_s`` standardizes on ``time.perf_counter``: it is the
highest-resolution monotonic clock CPython offers and it is the clock the
scheduler, executor and sampling estimator already stamp their wall-clock
accounting with, so every deadline, queue wait and per-stage trace duration
lives on one time axis.

Rules of use:

* every deadline (``deadline = monotonic_s() + timeout``) and every duration
  (``monotonic_s() - started``) in the service/bench layers goes through this
  helper — never ``time.monotonic`` or a bare ``time.perf_counter``;
* kernel ``*_task`` bodies still must not read any clock at all (repro-lint
  RPL003): timing belongs to the scheduler side of the queue.
"""

from __future__ import annotations

import time

__all__ = ["monotonic_s"]


def monotonic_s() -> float:
    """Seconds on the shared monotonic clock (``time.perf_counter``).

    Only differences and deadlines derived from this value are meaningful;
    the epoch is arbitrary (typically process start).
    """
    return time.perf_counter()
