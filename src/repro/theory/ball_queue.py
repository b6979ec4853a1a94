"""The ball-queue probabilistic model (Procedure 1, Lemma 1, Theorem 3).

Section 3.3.1 models re-optimization as a queue of ``N`` balls (join trees
ordered by estimated cost).  Each step takes the head ball; if it is already
marked (validated) the procedure stops, otherwise it is marked and re-inserted
at a uniformly random position.  The expected number of steps is

    S_N = sum_{k=1..N} k * (1 - 1/N) * ... * (1 - (k-1)/N) * k/N        (Eq. 1)

and Theorem 3 shows ``S_N = O(sqrt(N))``.  Figure 3 plots ``S_N`` against
``sqrt(N)`` and ``2*sqrt(N)`` for ``N`` up to 1000 (the scorecard's
``figure3_sn_curve`` regenerates it from :func:`expected_steps`), and
:func:`simulate_procedure1` provides an independent Monte-Carlo check of the
closed form.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


def expected_steps(n: int) -> float:
    """Exact ``S_N`` of Equation 1 for ``N = n``.

    The product ``(1 - 1/N)...(1 - (k-1)/N)`` is accumulated incrementally so
    the computation is linear in ``N`` and numerically stable (every factor is
    in ``[0, 1]``).
    """
    if n < 1:
        raise ValueError("N must be at least 1")
    total = 0.0
    survival = 1.0  # prod_{j=1}^{k-1} (1 - j/N), starts at the empty product
    for k in range(1, n + 1):
        total += k * survival * (k / n)
        survival *= 1.0 - k / n
        if survival <= 0.0:
            break
    return total


def simulate_procedure1(
    n: int,
    trials: int = 1000,
    seed: Optional[int] = None,
) -> float:
    """Monte-Carlo estimate of the expected number of steps of Procedure 1.

    Each trial simulates the queue of ``n`` balls directly: take the head
    ball, stop if it is marked, otherwise mark it and re-insert it at a
    uniformly random position (1-based position ``i`` chosen uniformly from
    ``1..n``).  Following Lemma 1's convention, the count is the number of
    *marking* steps performed before the terminating probe (so the result is
    directly comparable to :func:`expected_steps`).
    """
    if n < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    total_steps = 0
    for _ in range(trials):
        queue: List[int] = list(range(n))
        marked = [False] * n
        steps = 0
        while True:
            head = queue.pop(0)
            if marked[head]:
                break
            steps += 1
            marked[head] = True
            position = int(rng.integers(0, n))
            queue.insert(min(position, len(queue)), head)
        total_steps += steps
    return total_steps / trials

