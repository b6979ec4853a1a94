"""The speed of the core the client runs on, read by a fixed probe.

This host's cores switch between two speeds a factor of 1.5 apart (a
pure-interpreter loop takes 0.57 ms or 0.87 ms) and stay in one for 5-100 s,
whatever this machine itself does.  A run of 20-30 s falls into the fast
state, the slow one or a mixture, and no statistic taken inside the run can
tell which: wall-clock ``qps`` of ``reopt_batch`` read 40 or 50 depending on
nothing but the moment it ran.

So the client reads the core speed itself, with this probe between requests
and around each set-up, and the timing metrics are stated at one reference
speed: a time measured while the probe read ``x`` is multiplied by
``(PROBE_REFERENCE_MS / x) ** share``.  ``share`` is the part of the time
that follows the client core's clock; the rest waits for memory, or runs on
a worker's core, which changes state with the client's most of the time but
not always.  ``perfbench/README.md`` has the measurements behind the two
values and what they did to the spread of every metric.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

#: What the probe reads on this host in its usual (slower) state; adjusted
#: times are what the wall clock shows in that state.
PROBE_REFERENCE_MS = 0.85
#: Share of a time that follows the client core's clock where the client's
#: own process does the work (regressing each serving's latency on the
#: reading beside it: reopt_batch 0.83, serve_adhoc 0.54, serve_hot 0.72) ...
CLOCK_SHARE = 0.7
#: ... and where a pool of worker processes does it (pass by pass, qps
#: follows the reading with 0.47 on serve_sharded, 0.40 on star_parallel).
POOL_CLOCK_SHARE = 0.45
#: A request's core speed is the median probe reading from this long before
#: its start to this long after its end.
WINDOW_SECONDS = 0.05
#: The client probes after a request once this long has passed since the
#: last probe: 0.6-0.9 ms in every 5 ms or more.
PROBE_EVERY_SECONDS = 0.005


def probe(readings: List[Tuple[float, float]]) -> float:
    """Append ``(start, seconds)`` of one probe; returns when it ended."""
    started = time.perf_counter()
    total = 0
    slots = {}
    for index in range(6000):
        total += index * index % 7
        slots[index & 255] = total
    ended = time.perf_counter()
    readings.append((started, ended - started))
    return ended


def reference_factors(
    starts: np.ndarray, seconds: np.ndarray, readings: np.ndarray
) -> np.ndarray:
    """Per request, ``PROBE_REFERENCE_MS`` over the probe reading around it.

    ``readings`` are the ``(start, seconds)`` rows of the probes of the same
    pass, in time order, with at least two of them.
    """
    middles = readings[:, 0] + readings[:, 1] / 2
    first = np.searchsorted(middles, starts - WINDOW_SECONDS)
    last = np.searchsorted(middles, starts + seconds + WINDOW_SECONDS)
    factors = np.empty(len(starts))
    for index, (low, high) in enumerate(zip(first, last)):
        if high - low < 2:  # a long gap: the probe before and the one after
            low = min(max(low - 1, 0), len(middles) - 2)
            high = low + 2
        factors[index] = PROBE_REFERENCE_MS / (1e3 * np.median(readings[low:high, 1]))
    return factors
