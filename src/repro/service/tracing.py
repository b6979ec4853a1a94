"""Per-request tracing: where did this request's latency go?

A :class:`RequestTrace` rides along one ``execute`` call through the whole
serving stack — admission (queue wait), the sampling validator, Algorithm 1
planning, the join pipeline, and the canonical-order merge/finalize stage —
and comes back with one wall-clock duration per stage, all read from the
shared monotonic clock (:func:`repro.clock.monotonic_s`), so the
stages of one request are directly comparable with each other and with the
admission deadline the request ran under.

The trace is the observability primitive the load generator
(:mod:`repro.bench.loadgen`) aggregates into p50/p95/p99 latency and
per-stage breakdowns; it costs two clock reads per stage and allocates
nothing after construction, so it is cheap enough to leave on for every
request.

Callers can pass their own trace into
:meth:`repro.service.QueryService.execute` (the load generator does, so it
keeps the trace even when the request is shed with
:class:`~repro.service.admission.BackpressureError`); when they don't, the
service creates one and attaches it to the returned
:class:`~repro.service.service.ServiceResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["RequestTrace", "STAGE_FIELDS"]

#: The per-stage duration fields of a trace, in pipeline order.  The load
#: generator's per-stage breakdown and the BENCH artifact's columns follow
#: this order.
STAGE_FIELDS: Tuple[str, ...] = (
    "queue_wait_s",
    "validation_s",
    "planning_s",
    "execution_s",
    "merge_s",
)


@dataclass
class RequestTrace:
    """Per-stage wall-clock accounting of one served (or shed) request.

    All durations are seconds on the shared monotonic clock.  Stages a
    request never entered stay ``0.0`` — e.g. a result-cache hit has only
    ``total_s``, a validated reuse has no ``planning_s``, and a shed
    request has only ``queue_wait_s``.
    """

    #: Client id the request was submitted under; the load generator groups
    #: requests by it.
    client: str = "default"
    #: Prepared-statement name (filled once the statement is normalized).
    template: str = ""
    #: How the request was served — the cache-hit class: ``result_cache``,
    #: ``coalesced``, ``validated_reuse``, ``replan``, ``fresh`` or a
    #: ``scatter_*`` mode on the sharded coordinator.  Empty while in flight
    #: and for shed requests.
    source: str = ""
    #: ``ok``, or how the request failed: ``shed`` (admission queue full),
    #: ``timeout`` (admission/coalesce deadline expired).
    outcome: str = "ok"
    #: Seconds spent waiting for an execution slot (admission queue), or for
    #: a coalesced leader's published result.
    queue_wait_s: float = 0.0
    #: Seconds the sampling validator spent guarding the cached plan.
    validation_s: float = 0.0
    #: Seconds inside Algorithm 1 (fresh plan or drift replan).
    planning_s: float = 0.0
    #: Seconds executing the join pipeline (scatter fragments included).
    execution_s: float = 0.0
    #: Seconds merging/finalizing: canonical-order sort + final
    #: projection/aggregation stage (single node), or the coordinator's
    #: partial/gather merge (sharded).
    merge_s: float = 0.0
    #: End-to-end service-side latency (every stage plus overhead).
    total_s: float = 0.0
    #: Monotonic stamp at which the service started handling the request.
    started_s: float = 0.0

    @property
    def accounted_s(self) -> float:
        """Seconds attributed to a named stage."""
        return (
            self.queue_wait_s
            + self.validation_s
            + self.planning_s
            + self.execution_s
            + self.merge_s
        )

    @property
    def overhead_s(self) -> float:
        """Latency not attributed to any stage (dispatch, caches, locks)."""
        return max(0.0, self.total_s - self.accounted_s)

    def stage_seconds(self) -> Dict[str, float]:
        """Stage → seconds, in :data:`STAGE_FIELDS` order."""
        return {stage: float(getattr(self, stage)) for stage in STAGE_FIELDS}
