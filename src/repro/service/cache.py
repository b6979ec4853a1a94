"""The service's two caches: results and validated plans.

**Result cache** — a bounded LRU keyed on ``(template fingerprint, binding
key, table-epoch snapshot)``.  The epoch snapshot
(:meth:`repro.storage.catalog.Database.epoch_snapshot`) is part of the key,
so invalidation is free: bumping any referenced table's epoch makes every
later lookup miss, and the stale lines age out through the LRU bound.  An
explicit ``invalidate_table`` sweep is provided for callers that want the
memory back immediately.

**Plan cache** — one :class:`PlanCacheEntry` per template: the lock that
serializes the template's validation and (re)planning, the plan Algorithm 1
converged to for some binding, and the Γ *expectations* it was validated
under (join set → sampled cardinality).  No planning state is kept: a drift
replan runs Algorithm 1 from scratch.  The entry is what the sampling validator guards:
a new binding's Δ is compared against ``expectations`` and the plan is
reused only while the drift stays within :data:`DRIFT_THRESHOLD`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cardinality.gamma import JoinSet
from repro.executor.executor import ExecutionResult
from repro.plans.nodes import PlanNode

#: Bound of the result cache (entries).
RESULT_CACHE_ENTRIES = 256


@dataclass
class ResultCacheStats:
    """Hit/miss/eviction counters of the result cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class ResultCache:
    """Bounded LRU of executed results, epoch-stamped against staleness."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, ExecutionResult]" = OrderedDict()
        self.stats = ResultCacheStats()

    @staticmethod
    def key(template_fingerprint: Tuple, binding: Tuple, epochs: Tuple) -> Tuple:
        return (template_fingerprint, binding, epochs)

    def get(self, key: Tuple) -> Optional[ExecutionResult]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: Tuple, result: ExecutionResult) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > RESULT_CACHE_ENTRIES:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate_table(self, table: str) -> int:
        """Drop every line whose epoch snapshot mentions ``table``.

        Epoch-stamped keys make this optional for correctness (a bumped
        epoch can never be hit again); sweeping reclaims the memory now.
        """
        with self._lock:
            stale = [
                key
                for key in self._entries
                if any(name == table for name, _ in key[2])
            ]
            for key in stale:
                del self._entries[key]
            self.stats.invalidations += len(stale)
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass
class PlanCacheEntry:
    """The cached, sampling-guarded plan of one prepared template."""

    #: Serializes validation and (re)planning of this template, so distinct
    #: templates plan concurrently.  Evicting the entry drops its lock too.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: The plan Algorithm 1 converged to for the bindings it was planned
    #: for; ``None`` until the template's first plan is in.
    plan: Optional[PlanNode] = None
    #: Γ expectations the plan was validated under: join set → sampled
    #: cardinality at planning time.  The drift guard compares each new
    #: binding's sampled Δ against these.
    expectations: Dict[JoinSet, float] = field(default_factory=dict)


#: Largest deviation factor (:func:`max_drift`) a cached plan survives: a new
#: binding whose sampled cardinalities drift further triggers a replan.  It
#: tolerates the sampling noise of unchanged workloads while catching the
#: order-of-magnitude shifts that flip join orders.
DRIFT_THRESHOLD = 4.0


def max_drift(
    expectations: Dict[JoinSet, float],
    observed: Dict[JoinSet, float],
) -> float:
    """The largest deviation factor between expected and observed Δ entries.

    Deviation is the symmetric ratio ``max(e, o) / min(e, o)`` with both
    sides floored at one row (1.0 = spot on).  Join sets present in
    only one of the two mappings are skipped — an unvalidatable join set
    (no sample support) must not force a replan by itself.
    """
    worst = 1.0
    for join_set, observed_value in observed.items():
        expected_value = expectations.get(join_set)
        if expected_value is None:
            continue
        expected = max(float(expected_value), 1.0)
        actual = max(float(observed_value), 1.0)
        worst = max(worst, max(expected, actual) / min(expected, actual))
    return worst
